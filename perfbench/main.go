// Command perfbench is the repository's benchmark. It drives one of three
// workloads through the pool, checks every result against its own model,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-bulk --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as the program can: the first set-up is
// timed from it.
var processStart = time.Now()

// sizes are a workload's input dimensions. fullSize keeps every working
// set around 1 MiB: pool loops spread several times wider once the working
// set outgrows the host's 4 MiB L2.
type sizes struct {
	bulkPerBench, bulkReq int // serve-bulk
	sparseBytes, actBytes int // serve-chunked, per region
	jobBytes              int // lifecycle, per job
	setups                int // set-ups per run; setup_s is the median of the quieter half (see quietMedian)
}

var (
	fullSize = sizes{bulkPerBench: 128 << 10, bulkReq: 64 << 10, sparseBytes: 256 << 10, actBytes: 128 << 10, jobBytes: 256 << 10, setups: 61}
	testSize = sizes{bulkPerBench: 16 << 10, bulkReq: 16 << 10, sparseBytes: 64 << 10, actBytes: 16 << 10, jobBytes: 32 << 10, setups: 1}
)

// workload is one set-up workload instance.
type workload interface {
	base() *instance
	prepare()
	round(set *spanSet) (roundResult, error)
}

type serve struct{ *instance }

func (s serve) base() *instance                         { return s.instance }
func (s serve) round(set *spanSet) (roundResult, error) { return s.serveRound(set) }
func (lc *lifecycle) base() *instance                   { return lc.instance }

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"serve-bulk", "serve-chunked", "lifecycle"}

func setupWorkload(name string, size sizes, seed uint64) (workload, error) {
	switch name {
	case "serve-bulk":
		in, err := setupServeBulk(size, seed)
		if err != nil {
			return nil, err
		}
		return serve{in}, nil
	case "serve-chunked":
		in, err := setupServeChunked(size, seed)
		if err != nil {
			return nil, err
		}
		return serve{in}, nil
	case "lifecycle":
		return setupLifecycle(size, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans
	size     sizes
	// corruptModel flips one byte of the benchmark's model after set-up,
	// so the run must fail its checks (used by the tests).
	corruptModel bool
}

// corruptFirstRead flips one model byte of the first range the first
// client reads before writing it.
func corruptFirstRead(in *instance) {
	type key struct {
		a   *alloc
		off int
	}
	written := map[key]bool{}
	for _, r := range in.streams[0] {
		if r.write {
			written[key{r.a, r.off}] = true
		} else if !written[key{r.a, r.off}] {
			r.a.model[r.off] ^= 1
			return
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "serve-bulk", "workload: serve-bulk, serve-chunked or lifecycle")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase; whole rounds run until it has passed")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	steadyMode := flag.Bool("steady", false, "run the steadiness report instead of one run (see steady.go)")
	flag.Parse()
	if *steadyMode {
		seconds := 0 // BENCHMARK.json's run_seconds
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				seconds = int(cfg.seconds)
			}
		})
		ok, err := steady(int(cfg.seed), seconds, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		if err != nil || !ok {
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.size = fullSize
	cfg.spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", cfg.workload, cfg.seed)
	res, err := run(cfg, os.Stderr)
	if res != nil {
		line, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", merr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Host time on a shared virtual machine drifts: the hypervisor steals CPU
// time in spells, from a few percent to a third of it, and while it does
// p99 latency doubles or triples while the median barely moves. So the
// timed phase is cut into short windows of whole rounds, each holding at
// least a workload's windowSamples latencies (about a quarter of a second
// of its requests, and never fewer than p99Samples), /proc/stat gives the
// time stolen during each, and every
// host-time metric is the median, over the quarter of the windows with the
// least steal and every window tied with them (see quietMedian), of that
// window's figure. Counting windows in samples rather
// than seconds keeps the memory they take the same on a fast and a slow
// machine. A trailing window too short to qualify still has its rounds
// checked and counted, but gives no figures.

// p99Samples is the fewest latencies with ten beyond their p99, the
// smallest window that has a p99.
const p99Samples = 1000

// windowStats are one window's host-time figures, and the CPU time the
// host's hypervisor stole while it ran, in clock ticks per second.
type windowStats struct{ mbps, p50, p99, cpuMsPerMB, steal float64 }

// phase accumulates the rounds of one timed phase.
type phase struct {
	windowSamples int
	rounds        int
	wall          time.Duration
	latNs         int64
	payload       int64
	entries       int64
	first         roundResult // modeled figures repeat, so one round stands for all
	last          roundResult

	windows []windowStats
	cur     struct {
		wall, cpu time.Duration
		payload   int64
		lat       []float64
		start     time.Time
		steal0    int64
	}
}

func (ph *phase) add(r roundResult) {
	if ph.rounds == 0 {
		ph.first = r
	}
	ph.rounds++
	ph.wall += r.wall
	ph.latNs += r.latNs
	ph.payload += r.payload
	ph.entries += r.entries
	ph.last = r
	c := &ph.cur
	c.wall += r.wall
	c.cpu += r.cpu
	c.payload += r.payload
	c.lat = append(c.lat, r.lat...)
	if len(c.lat) >= ph.windowSamples {
		s := summarizeInPlace(c.lat)
		mb := float64(c.payload) / 1e6
		now, steal := time.Now(), stealTicks()
		ph.windows = append(ph.windows, windowStats{
			mbps: mb / c.wall.Seconds(), p50: s.P50, p99: s.Tail,
			cpuMsPerMB: c.cpu.Seconds() * 1e3 / mb,
			steal:      float64(steal-c.steal0) / now.Sub(c.start).Seconds(),
		})
		c.wall, c.cpu, c.payload, c.lat = 0, 0, 0, c.lat[:0]
		c.start, c.steal0 = now, steal
	}
}

// median of one window figure over the quiet quarter of the windows.
func (ph *phase) median(f func(windowStats) float64) float64 {
	xs := make([]float64, len(ph.windows))
	steal := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		xs[i], steal[i] = f(w), w.steal
	}
	return quietMedian(xs, steal, 4)
}

// quietMedian is the median of the values of xs taken while the host
// stole the least CPU time: the 1/div of them with the least steal, plus
// every value that ties with the steal at that cut. Steal is counted in
// whole clock ticks, so short windows tie often; where none was stolen (or
// /proc/stat cannot be read) every value ties and the median is of all of
// xs. Under four values it is always the median of all of them.
func quietMedian(xs, steal []float64, div int) float64 {
	quiet := xs
	if len(xs) >= 4 {
		sorted := slices.Sorted(slices.Values(steal))
		cut := sorted[(len(sorted)+div-1)/div-1]
		quiet = nil
		for i, x := range xs {
			if steal[i] <= cut {
				quiet = append(quiet, x)
			}
		}
	}
	return median(quiet)
}

// stealTicks returns the host's cumulative stolen CPU time in clock ticks,
// from /proc/stat, or 0 where that cannot be read (then every window ties
// and counts as quiet).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64) // 0 on a malformed field, as above
	return n
}

func (ph *phase) mbps() float64 { return float64(ph.payload) / 1e6 / ph.wall.Seconds() }

// step runs one whole round into ph, checking that its modeled figures
// equal the phase's first round's.
func (ph *phase) step(w workload, set *spanSet, res *result) error {
	r, err := w.round(set)
	res.Attempted += r.ops
	res.Failed += r.failed
	if err != nil {
		return fmt.Errorf("round %d: %w", ph.rounds+1, err)
	}
	if ph.rounds > 0 && (r.model.gbps != ph.first.model.gbps || r.model.skew != ph.first.model.skew || r.ratio != ph.first.ratio) {
		return fmt.Errorf("round %d: modeled figures %+v ratio %v differ from round 1's %+v ratio %v",
			ph.rounds+1, r.model, r.ratio, ph.first.model, ph.first.ratio)
	}
	ph.add(r)
	return nil
}

func newPhase(w workload) *phase {
	ph := &phase{windowSamples: max(w.base().windowSamples, p99Samples)}
	ph.cur.start, ph.cur.steal0 = time.Now(), stealTicks()
	return ph
}

// runRounds runs whole rounds until d has passed and at least one window
// is complete.
func runRounds(w workload, d time.Duration, res *result) (*phase, error) {
	ph := newPhase(w)
	for start := time.Now(); len(ph.windows) == 0 || time.Since(start) < d; {
		if err := ph.step(w, nil, res); err != nil {
			return ph, err
		}
	}
	return ph, nil
}

// alternateRounds runs pairs of whole rounds, one untraced and one traced
// into set, so that drift in the host's speed falls on both alike. It
// stops once d has passed and both have a window, or, once they have,
// when the span buffer has no room for another traced round like the
// last, so that every traced round is traced whole.
func alternateRounds(w workload, d time.Duration, set *spanSet, res *result) (plain, traced *phase, err error) {
	plain, traced = newPhase(w), newPhase(w)
	var roundSpans int64
	for start := time.Now(); ; {
		windows := len(plain.windows) > 0 && len(traced.windows) > 0
		if windows && (time.Since(start) >= d || !set.room(roundSpans)) {
			return plain, traced, nil
		}
		if err := plain.step(w, nil, res); err != nil {
			return plain, traced, err
		}
		spans0 := set.count()
		if err := traced.step(w, set, res); err != nil {
			return plain, traced, err
		}
		roundSpans = set.count() - spans0
	}
}

// run performs one benchmark run and returns its result line. A non-nil
// result with a non-nil error is a run whose checks failed.
func run(cfg config, log io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metricValue{}}
	// setup_s is the median over the quieter half of the set-ups, by steal
	// (see quietMedian).
	setups := make([]float64, cfg.size.setups)
	steal := make([]float64, cfg.size.setups)
	var w workload
	for i := range setups {
		runtime.GC() // each set-up starts from a collected heap
		start, steal0 := time.Now(), stealTicks()
		if i == 0 {
			start = processStart
		}
		inst, err := setupWorkload(cfg.workload, cfg.size, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		steal[i] = float64(stealTicks()-steal0) / setups[i]
		if i < len(setups)-1 {
			inst.base().close()
			continue
		}
		w = inst
	}
	in := w.base()
	defer in.close()
	w.prepare()
	if cfg.corruptModel {
		corruptFirstRead(in)
	}
	setupS := quietMedian(setups, steal, 2)
	fmt.Fprintf(log, "%s seed %d: %d allocations, %d shards, set-up %.3fs (set-ups %.3v s, steal %.0f ticks/s)\n",
		cfg.workload, cfg.seed, len(in.allocs), in.p.Shards(), setupS, setups, steal)

	d := time.Duration(cfg.seconds * float64(time.Second))
	var err error
	if cfg.trace {
		err = traced(w, d, cfg, res, log)
	} else {
		err = untraced(w, d, setupS, res, log)
	}
	if err == nil {
		if err = in.verifyAll(); err == nil {
			err = in.checkTenants()
		}
	}
	res.Correct = err == nil
	return res, err
}

// untraced runs the timed phase and fills in the end-to-end metrics.
func untraced(w workload, d time.Duration, setupS float64, res *result, log io.Writer) error {
	ph, err := runRounds(w, d, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%d rounds in %.2fs, %.1f MB; medians over the quietest quarter (with ties) of %d windows of at least %d latencies\n",
		ph.rounds, ph.wall.Seconds(), float64(ph.payload)/1e6, len(ph.windows), ph.windowSamples)
	for _, w := range ph.windows {
		fmt.Fprintf(log, "  window: %.1f MB/s, p50 %.1f µs, p99 %.1f µs, %.3f CPU ms/MB, steal %.1f ticks/s\n", w.mbps, w.p50, w.p99, w.cpuMsPerMB, w.steal)
	}
	put(res, "throughput_mbps", ph.median(func(w windowStats) float64 { return w.mbps }))
	put(res, "latency_p50_us", ph.median(func(w windowStats) float64 { return w.p50 }))
	put(res, "latency_p99_us", ph.median(func(w windowStats) float64 { return w.p99 }))
	put(res, "setup_s", setupS)
	put(res, "max_rss_mb", maxRSSMiB())
	put(res, "cpu_ms_per_mb", ph.median(func(w windowStats) float64 { return w.cpuMsPerMB }))
	put(res, "compression_ratio", ph.first.ratio)
	put(res, "modeled_gbps", ph.first.model.gbps)
	return nil
}

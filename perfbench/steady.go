package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// The steadiness mode runs the benchmark repeatedly and reports how steady
// each end-to-end metric is. Each workload runs in two sets of steadyRuns
// runs: one that repeats the default seed, which shows run-to-run noise
// alone and must give identical modeled figures and failed shares every
// time, and one on seeds --seed to --seed+steadyRuns-1, which adds the
// differences between seeds' data. For each set and metric it prints the
// median, the quartiles (as Python's statistics.quantiles(values, n=4)
// gives them) and their spread as a share of the median, against the
// metric's bound in BENCHMARK.json; a spread past its bound fails the
// report. A fixed host-speed probe runs before and after every run, so a
// slow phase of the machine shows next to the figures it touched. Last,
// each workload runs once on the held-out seed, whose checks must pass too.
//
//	bash perfbench/run.sh --steady

const (
	steadyRuns  = 10
	heldOutSeed = 9001
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// steady runs the steadiness report from the given seed, with runs of
// seconds (0: BENCHMARK.json's run_seconds). It returns false if a run
// failed, a check failed, a spread exceeded its bound or a figure that must
// repeat did not.
func steady(seed, seconds int, out io.Writer) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	if seconds == 0 {
		seconds = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range bf.Workloads {
		repeat := make([]int, steadyRuns)
		across := make([]int, steadyRuns)
		for i := range steadyRuns {
			repeat[i], across[i] = seed, seed+i
		}
		ok = steadySet(out, bf, self, w.Name, fmt.Sprintf("seed %d repeated", seed), repeat, seconds, true) && ok
		ok = steadySet(out, bf, self, w.Name, fmt.Sprintf("seeds %d to %d", seed, seed+steadyRuns-1), across, seconds, false) && ok
	}
	for _, w := range bf.Workloads {
		res, err := runOnce(self, w.Name, heldOutSeed, seconds)
		if err != nil {
			fmt.Fprintf(out, "held-out seed %d, %s: %v\n", heldOutSeed, w.Name, err)
			ok = false
			continue
		}
		fmt.Fprintf(out, "held-out seed %d, %s: correct=%v attempted=%d failed=%d\n", heldOutSeed, w.Name, res.Correct, res.Attempted, res.Failed)
		ok = ok && res.Correct
	}
	return ok, nil
}

// steadySet runs workload w once per seed and prints each end-to-end
// metric's spread against its bound. With sameSeed, compression_ratio,
// modeled_gbps and the share of failed operations must also be identical
// in every run; the failed share must be in any case.
func steadySet(out io.Writer, bf *benchmarkFile, self, w, label string, seeds []int, seconds int, sameSeed bool) bool {
	ok := true
	vals := map[string][]float64{}
	var shares []float64
	for _, s := range seeds {
		before := hostProbe()
		res, err := runOnce(self, w, s, seconds)
		after := hostProbe()
		if err != nil {
			fmt.Fprintf(out, "%s seed %d: %v\n", w, s, err)
			ok = false
			continue
		}
		fmt.Fprintf(out, "%s seed %d: correct=%v attempted=%d failed=%d probe %.0f/%.0f ms", w, s, res.Correct, res.Attempted, res.Failed, before, after)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name].Value
			vals[m.Name] = append(vals[m.Name], v)
			fmt.Fprintf(out, " %s=%.4g", m.Name, v)
		}
		fmt.Fprintln(out)
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		ok = ok && res.Correct
	}
	distinct := func(v []float64) []float64 { return slices.Compact(slices.Sorted(slices.Values(v))) }
	fmt.Fprintf(out, "\n%s, %s: %d runs of %d s, failed share per run %v\n", w, label, len(shares), seconds, distinct(shares))
	if len(distinct(shares)) > 1 {
		fmt.Fprintln(out, "  FAILED SHARE DIFFERS BETWEEN RUNS")
		ok = false
	}
	if sameSeed {
		for _, name := range []string{"compression_ratio", "modeled_gbps"} {
			if d := distinct(vals[name]); len(d) > 1 {
				fmt.Fprintf(out, "  %s DIFFERS BETWEEN RUNS OF ONE SEED: %v\n", name, d)
				ok = false
			} else {
				fmt.Fprintf(out, "  %s identical in every run: %v\n", name, d)
			}
		}
	}
	fmt.Fprintf(out, "  %-20s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range bf.EndToEnd {
		v := vals[m.Name]
		if len(v) < 2 {
			continue
		}
		q1, med, q3 := quartiles(v)
		spread := (q3 - q1) / med
		verdict := "below bound/3"
		switch {
		case spread > m.Bound:
			verdict = "WIDER THAN BOUND"
			ok = false
		case spread > m.Bound/3:
			verdict = "within bound, above bound/3"
		}
		fmt.Fprintf(out, "  %-20s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s\n", m.Name, med, q1, q3, 100*spread, 100*m.Bound, verdict)
	}
	fmt.Fprintln(out)
	return ok
}

// runOnce runs the benchmark binary once and parses its last output line.
func runOnce(self, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

// hostProbe times a fixed integer loop: the host's speed at that moment,
// in ms.
func hostProbe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(start).Microseconds()) / 1e3
}

var probeSink uint64

package main

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/core"
)

func TestSummarizeReportsTailOnlyWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p50   float64
		tailQ float64
		tail  float64
	}{
		{n: 39, p50: 20},                         // under 40: the median alone
		{n: 40, p50: 20},                         // 40 samples: 4 beyond p90, no tail
		{n: 100, p50: 50, tailQ: 0.90, tail: 90}, // 10 beyond p90, 5 beyond p95
		{n: 999, p50: 500, tailQ: 0.95, tail: 950},
		{n: 1000, p50: 500, tailQ: 0.99, tail: 990},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.TailQ != tc.tailQ || s.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v tail p%v=%v", tc.n, s, tc.p50, tc.tailQ*100, tc.tail)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.5, 4.4, 1.1}, 1.1, 3.1, 7.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSplitRuleOnHandBuiltEntries(t *testing.T) {
	for _, tc := range []struct {
		target     core.TargetRatio
		sectors    int
		dev, buddy int
	}{
		{core.Target1x, 4, 128, 0},
		{core.Target4by3x, 4, 96, 32},
		{core.Target2x, 1, 32, 0},
		{core.Target2x, 3, 64, 32},
		{core.Target4x, 4, 32, 96},
		{core.Target2x, 0, 32, 0},  // all-zero entry: one device sector
		{core.Target16x, 0, 8, 0},  // zero page: the 8 B word only
		{core.Target16x, 2, 8, 64}, // the whole compressed entry over the link
	} {
		dev, buddy := splitEntry(tc.target, tc.sectors)
		if dev != tc.dev || buddy != tc.buddy {
			t.Errorf("%v with %d sectors: %d/%d, want %d/%d", tc.target, tc.sectors, dev, buddy, tc.dev, tc.buddy)
		}
	}
}

// TestSplitRuleMatchesDeviceCounters writes hand-built entries (all zero,
// lightly and not at all compressible) under 2x and 16x targets to a bare
// device and checks its counters against the split rule applied to the
// codec's own sector counts.
func TestSplitRuleMatchesDeviceCounters(t *testing.T) {
	codec := compress.NewBPC()
	entries := make([]byte, 3*entryBytes)
	for i := 0; i < 32; i++ { // entry 1: small increasing words
		entries[entryBytes+4*i] = byte(i)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 2 * entryBytes; i < 3*entryBytes; i++ {
		entries[i] = byte(r.Uint32())
	}
	var sectors []int
	for e := 0; e < 3; e++ {
		sectors = append(sectors, compress.SectorsNeeded(codec, entries[e*entryBytes:(e+1)*entryBytes]))
	}
	if sectors[0] != 0 || sectors[2] != 4 {
		t.Fatalf("sectors %v: want an all-zero entry first and an incompressible one last", sectors)
	}
	for _, target := range []core.TargetRatio{core.Target2x, core.Target16x} {
		dev := core.NewDevice(core.Config{Codec: codec, DeviceBytes: 1 << 20})
		a, err := dev.Malloc("x", int64(len(entries)), target)
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetTraffic()
		var want traffic
		if _, err := a.WriteAt(entries, 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(entries))
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		for _, write := range []bool{true, false} {
			for _, s := range sectors {
				want.add(target, s, write)
			}
		}
		if err := checkTraffic(want, dev.Traffic()); err != nil {
			t.Errorf("%v: %v", target, err)
		}
		dev.Close()
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first: counted once
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{Parent: 1, Start: -5, End: 5},   // clipped to the parent's start
	}
	if got := selfTime(parent, kids); got != 55 {
		t.Errorf("self time %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
	totals := totalsByName(append([]span{{ID: 1, Name: "request", Start: 0, End: 100}},
		span{ID: 2, Parent: 1, Name: "wait", Start: 10, End: 70}))
	for _, tt := range totals {
		if tt.Name == "request" && tt.Self != 40 || tt.Name == "wait" && tt.Self != 60 {
			t.Errorf("totals %+v", tt)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON checks the declared metric tables
// against BENCHMARK.json and that a short run of every workload, untraced
// and traced, prints exactly the declared metrics and passes its checks.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		slices.Sort(out)
		return out
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	slices.Sort(e2e)
	slices.Sort(layer)
	if want := declared(endToEnd); !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, want)
	}
	if want := declared(perLayer); !slices.Equal(layer, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", layer, want)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}

	for _, w := range workloadNames {
		for _, tr := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 0.05, trace: tr, size: testSize,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, tr, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, tr, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name+" "+v.Unit)
			}
			slices.Sort(got)
			want := e2e
			if tr {
				want = layer
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v printed %v, want %v", w, tr, got, want)
			}
		}
	}
}

// TestFlippedModelByteFailsTheRun flips one byte of the benchmark's model
// and expects every workload's checks to catch it.
func TestFlippedModelByteFailsTheRun(t *testing.T) {
	for _, w := range workloadNames {
		cfg := config{workload: w, seed: 7, seconds: 0.01, size: testSize, corruptModel: true}
		res, err := run(cfg, io.Discard)
		if err == nil || res == nil || res.Correct {
			t.Errorf("%s: a flipped model byte went unnoticed (err %v)", w, err)
		}
	}
}

func TestQuietMedianKeepsTheLeastStolenShare(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	steal := []float64{5, 0, 3, 0, 9, 1, 0, 2}
	// The quarter's cut falls on steal 0, which three values share.
	if got := quietMedian(xs, steal, 4); got != 40 {
		t.Errorf("quietest quarter: median %v, want 40 (of 20, 40 and 70)", got)
	}
	if got := quietMedian(xs, steal, 2); got != 50 {
		t.Errorf("quietest half: median %v, want 50 (of 20, 40, 60 and 70)", got)
	}
	if got := quietMedian(xs[:3], steal[:3], 4); got != 20 {
		t.Errorf("under four values: median %v, want 20 (of all)", got)
	}
	// With no steal every value ties: the median is of the whole run, not
	// of its first quarter.
	if got := quietMedian(xs, make([]float64, len(xs)), 4); got != 45 {
		t.Errorf("equal steal: median %v, want 45 (of all)", got)
	}
}

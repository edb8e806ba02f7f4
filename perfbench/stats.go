package main

import (
	"fmt"
	"math"
	"slices"
)

// minTailSamples is the sample count below which a latency distribution is
// summarized by its median alone: a tail percentile over fewer samples
// would be no tail.
const minTailSamples = 40

// tailBeyond is how many samples a reported tail percentile must have
// beyond it.
const tailBeyond = 10

// latencySummary is a latency distribution reduced to its median and the
// highest supported tail percentile, with the sample count behind both.
type latencySummary struct {
	N int
	// P50 is the median.
	P50 float64
	// Tail is the value at percentile TailQ; TailQ is 0 when the sample is
	// too small for any tail percentile.
	Tail  float64
	TailQ float64
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// small slack keeps q*n from rounding up past a whole number (0.9*100 is
// 90.00000000000001 in floating point).
func rank(q float64, n int) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)-1e-9))))
}

// quantile returns the nearest-rank q-quantile of sorted (q in (0, 1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// summarize reduces samples to a latencySummary. The tail is the highest of
// p99, p95 and p90 that has at least tailBeyond samples beyond it; under
// minTailSamples only the median is reported.
func summarize(samples []float64) latencySummary {
	return summarizeInPlace(slices.Clone(samples))
}

// summarizeInPlace is summarize that sorts s itself.
func summarizeInPlace(s []float64) latencySummary {
	slices.Sort(s)
	out := latencySummary{N: len(s), P50: quantile(s, 0.5)}
	if len(s) < minTailSamples {
		return out
	}
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if len(s)-rank(q, len(s)) >= tailBeyond {
			out.Tail, out.TailQ = quantile(s, q), q
			break
		}
	}
	return out
}

// String prints the summary with its sample count.
func (l latencySummary) String() string {
	if l.TailQ == 0 {
		return fmt.Sprintf("p50 %.1f (n=%d, too few for a tail)", l.P50, l.N)
	}
	return fmt.Sprintf("p50 %.1f p%.0f %.1f (n=%d)", l.P50, l.TailQ*100, l.Tail, l.N)
}

// median returns the median of xs (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters with the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), the
// rule the spread of repeated runs is judged by. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

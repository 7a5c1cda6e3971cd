package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// fewer and the percentile is one or two outliers, not a measurement.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at. Stepping
// through fixed rungs, rather than using 1−10/n directly, keeps the
// reported percentile constant while the sample count of a closed loop
// drifts within a band, so runs of the same code stay comparable.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// timing is a latency sample reduced to the numbers the benchmark reports.
type timing struct {
	N       int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // the percentile Tail was taken at, in (0, 1]; 1 = max
}

// summarize reduces latencies to the median and the highest ladder
// percentile with at least minBeyond samples beyond it. With too few
// samples for any rung the tail is the maximum. The input is not modified.
func summarize(lat []time.Duration) timing {
	if len(lat) == 0 {
		return timing{}
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := tailPercentile(len(s))
	return timing{N: len(s), P50: s[rankIndex(len(s), 0.5)], Tail: s[rankIndex(len(s), p)], TailPct: p}
}

// tailPercentile returns the highest ladder percentile p for which a sample
// of n leaves at least minBeyond values above the nearest-rank p-th
// percentile, or 1 (the maximum) when no rung qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p
		}
	}
	return 1
}

// rankIndex is the nearest-rank index of percentile p in a sorted sample
// of n: the smallest index with at least p·n values at or below it.
func rankIndex(n int, p float64) int {
	// The epsilon keeps binary rounding of p·n (0.99·1000 is not exactly
	// 990) from pushing the index one rank up.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

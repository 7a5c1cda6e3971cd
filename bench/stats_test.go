package main

import (
	"testing"
	"time"
)

func TestSummarizeTailPercentile(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
	}{
		{1, 1},
		{10, 1},
		{11, 1},
		{20, 0.5},
		{100, 0.9},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		// Samples 1..n ms in reverse order, so summarize must sort.
		lat := make([]time.Duration, c.n)
		for i := range lat {
			lat[i] = time.Duration(c.n-i) * time.Millisecond
		}
		got := summarize(lat)
		if got.N != c.n || got.TailPct != c.wantPct {
			t.Errorf("n=%d: got N=%d pct=%v, want pct=%v", c.n, got.N, got.TailPct, c.wantPct)
			continue
		}
		beyond := 0
		for _, d := range lat {
			if d > got.Tail {
				beyond++
			}
		}
		if c.wantPct < 1 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the p%v tail %v", c.n, beyond, 100*c.wantPct, got.Tail)
		}
		if c.wantPct == 1 && got.Tail != time.Duration(c.n)*time.Millisecond {
			t.Errorf("n=%d: tail %v, want the maximum", c.n, got.Tail)
		}
		if want := time.Duration((c.n+1)/2) * time.Millisecond; got.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, got.P50, want)
		}
	}
	if got := summarize(nil); got.N != 0 {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

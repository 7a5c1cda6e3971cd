package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Trace-format hardening bounds. ParseTrace enforces them so a corrupted or
// adversarial trace fails with an error instead of a multi-gigabyte
// schedule or a NaN-poisoned rate function.
const (
	// MaxTracePoints caps the number of rate points in one trace.
	MaxTracePoints = 1 << 16
	// MaxTraceRate caps a single rate value in requests per second.
	MaxTraceRate = 1e6
	// MaxTraceOffset caps a single offset, in seconds (~31 years).
	MaxTraceOffset = 1e9
	// maxTraceLineBytes caps one line of input.
	maxTraceLineBytes = 64 << 10
)

// TraceProfile replays a recorded rate trace as a piecewise-constant
// Profile: at each recorded offset the rate steps to the recorded value and
// holds until the next point. The rate is 0 before the first offset and the
// last recorded rate holds for the rest of the horizon, so a trace shorter
// than the sampled duration extends naturally.
//
// Construct one with ParseTrace; the zero value is a valid all-zero-rate
// profile.
type TraceProfile struct {
	offsets []time.Duration
	rates   []float64
}

// ParseTrace reads a rate trace in the textual format
//
//	# comment
//	<offset_seconds> <rate_rps>
//
// one point per line, offsets strictly increasing. Blank lines and
// #-comments are skipped; anything else — extra fields, non-numeric or
// non-finite values, negative or out-of-bound offsets and rates, unsorted
// or duplicate offsets, more than MaxTracePoints points, or a line longer
// than 64 KiB — is rejected with a line-numbered error.
func ParseTrace(r io.Reader) (*TraceProfile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxTraceLineBytes)
	tp := &TraceProfile{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("loadgen: trace line %d: want \"offset_seconds rate_rps\", got %d fields", lineNo, len(fields))
		}
		offSec, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: trace line %d: bad offset %q: %v", lineNo, fields[0], err)
		}
		rate, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: trace line %d: bad rate %q: %v", lineNo, fields[1], err)
		}
		if math.IsNaN(offSec) || math.IsInf(offSec, 0) || offSec < 0 || offSec > MaxTraceOffset {
			return nil, fmt.Errorf("loadgen: trace line %d: offset %v out of [0, %v] seconds", lineNo, offSec, float64(MaxTraceOffset))
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || rate > MaxTraceRate {
			return nil, fmt.Errorf("loadgen: trace line %d: rate %v out of [0, %v] rps", lineNo, rate, float64(MaxTraceRate))
		}
		if len(tp.offsets) >= MaxTracePoints {
			return nil, fmt.Errorf("loadgen: trace exceeds %d points", MaxTracePoints)
		}
		// Compare offsets after Duration conversion: two float offsets that
		// collapse to the same nanosecond are duplicates for sampling
		// purposes even if their decimal spellings differ.
		off := time.Duration(offSec * float64(time.Second))
		if n := len(tp.offsets); n > 0 && off <= tp.offsets[n-1] {
			return nil, fmt.Errorf("loadgen: trace line %d: offset %v not after previous %v (must be strictly increasing)", lineNo, off, tp.offsets[n-1])
		}
		tp.offsets = append(tp.offsets, off)
		tp.rates = append(tp.rates, rate)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: reading trace: %w", err)
	}
	if len(tp.offsets) == 0 {
		return nil, fmt.Errorf("loadgen: trace has no rate points")
	}
	return tp, nil
}

// index returns the index of the trace point in effect at t, or -1 if t is
// before the first point.
func (p *TraceProfile) index(t time.Duration) int {
	return sort.Search(len(p.offsets), func(i int) bool { return p.offsets[i] > t }) - 1
}

// Rate implements Profile.
func (p *TraceProfile) Rate(t time.Duration) float64 {
	i := p.index(t)
	if i < 0 {
		return 0
	}
	return p.rates[i]
}

// Integral implements Profile. Piecewise-constant rates integrate exactly
// as Σ rateᵢ·overlap(segmentᵢ, [t0,t1]).
func (p *TraceProfile) Integral(t0, t1 time.Duration) float64 {
	var total float64
	for i, start := range p.offsets {
		end := t1
		if i+1 < len(p.offsets) && p.offsets[i+1] < end {
			end = p.offsets[i+1]
		}
		lo, hi := start, end
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			total += p.rates[i] * (hi - lo).Seconds()
		}
	}
	return total
}

// MaxRate implements Profile. It scans only the point in effect at t0 plus
// the points starting inside (t0, t1) — a contiguous index range — so
// per-segment bounds during sampling stay cheap even for long traces.
func (p *TraceProfile) MaxRate(t0, t1 time.Duration) float64 {
	var max float64
	start := p.index(t0)
	if start >= 0 && p.rates[start] > max {
		max = p.rates[start]
	}
	for j := start + 1; j < len(p.offsets) && p.offsets[j] < t1; j++ {
		if p.offsets[j] > t0 && p.rates[j] > max {
			max = p.rates[j]
		}
	}
	return max
}

// Breakpoints implements Profile. Every rate step is a discontinuity.
func (p *TraceProfile) Breakpoints(d time.Duration, dst []time.Duration) []time.Duration {
	for _, off := range p.offsets {
		if off > 0 && off < d {
			dst = append(dst, off)
		}
	}
	return dst
}

// Validate implements Profile. ParseTrace enforces the invariants at
// construction; Validate re-checks them so hand-built traces get the same
// guarantees.
func (p *TraceProfile) Validate() error {
	if len(p.offsets) != len(p.rates) {
		return fmt.Errorf("loadgen: trace has %d offsets but %d rates", len(p.offsets), len(p.rates))
	}
	for i, r := range p.rates {
		if !finiteNonNeg(r) || r > MaxTraceRate {
			return fmt.Errorf("loadgen: trace rate %d is %v, want [0, %v]", i, r, float64(MaxTraceRate))
		}
		if p.offsets[i] < 0 {
			return fmt.Errorf("loadgen: trace offset %d is negative (%v)", i, p.offsets[i])
		}
		if i > 0 && p.offsets[i] <= p.offsets[i-1] {
			return fmt.Errorf("loadgen: trace offsets not strictly increasing at %d", i)
		}
	}
	return nil
}

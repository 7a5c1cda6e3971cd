package loadgen

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"sizeless/internal/xrand"
)

// fuzzSeedTrace is a small valid trace in the textual replay format —
// the fuzzer starts from real parser input instead of random bytes.
const fuzzSeedTrace = `# recorded fleet trace (offset_seconds rate_rps)
0 4
60 25.5
120 2

180 0.5
240 40
`

// FuzzParseTrace checks ParseTrace never panics, and that any trace it
// accepts is internally consistent: bounded point count, finite in-range
// rates, strictly increasing offsets, and a profile the thinning sampler
// can consume without error.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(fuzzSeedTrace))
	f.Add([]byte(""))
	f.Add([]byte("# only comments\n\n"))
	f.Add([]byte("0 10\n"))
	// Corrupted variants: non-finite rates, negative and unsorted offsets,
	// duplicates, extra fields, trailing garbage, huge values.
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "25.5", "NaN", 1)))
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "25.5", "+Inf", 1)))
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "60 25.5", "-60 25.5", 1)))
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "120 2", "30 2", 1)))
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "120 2", "60 2", 1)))
	f.Add([]byte(strings.Replace(fuzzSeedTrace, "120 2", "120 2 7", 1)))
	f.Add([]byte(fuzzSeedTrace + "trailing garbage\n"))
	f.Add([]byte("0 1e300\n"))
	f.Add([]byte("1e300 1\n"))
	f.Add([]byte("0 10\x00nul bytes\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
		if n := len(tp.offsets); n == 0 || n > MaxTracePoints {
			t.Fatalf("accepted trace has %d points, want (0, %d]", n, MaxTracePoints)
		}
		for i, r := range tp.rates {
			if !finiteNonNeg(r) || r > MaxTraceRate {
				t.Fatalf("accepted rate %v at point %d", r, i)
			}
		}
		for i := 1; i < len(tp.offsets); i++ {
			if tp.offsets[i] <= tp.offsets[i-1] {
				t.Fatalf("accepted non-increasing offsets at %d: %v then %v", i, tp.offsets[i-1], tp.offsets[i])
			}
		}
		// An accepted trace must be consumable: sampling a short horizon
		// either succeeds or fails cleanly on the expected-arrivals cap.
		sched, err := Sample(tp, 2*time.Second, xrand.New(1).Derive("fuzz"))
		if err != nil {
			if !strings.Contains(err.Error(), "cap") {
				t.Fatalf("sampling accepted trace: %v", err)
			}
			return
		}
		for _, a := range sched {
			if a < 0 || a >= 2*time.Second {
				t.Fatalf("sampled arrival %v outside horizon", a)
			}
		}
	})
}

// TestParseTraceRejectsCorruption pins the hardening rules the fuzzer
// relies on, so a regression fails fast in the normal test run too.
func TestParseTraceRejectsCorruption(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader(fuzzSeedTrace)); err != nil {
		t.Fatalf("seed trace must parse: %v", err)
	}
	var big strings.Builder
	for i := 0; i <= MaxTracePoints; i++ {
		big.WriteString(strconv.Itoa(i))
		big.WriteString(" 1\n")
	}
	cases := map[string]string{
		"empty":            "",
		"comments only":    "# nothing here\n\n",
		"NaN rate":         "0 NaN\n",
		"Inf rate":         "0 Inf\n",
		"negative rate":    "0 -5\n",
		"huge rate":        "0 1e300\n",
		"negative offset":  "-1 5\n",
		"huge offset":      "1e300 5\n",
		"NaN offset":       "NaN 5\n",
		"unsorted offsets": "0 5\n60 10\n30 2\n",
		"duplicate offset": "0 5\n60 10\n60 2\n",
		"sub-ns duplicate": "0 5\n1.0000000000001 10\n1.0000000000002 2\n",
		"one field":        "0\n",
		"three fields":     "0 5 9\n",
		"non-numeric":      "zero five\n",
		"trailing garbage": fuzzSeedTrace + "and then some\n",
		"too many points":  big.String(),
		"long line":        "0 " + strings.Repeat("5", 70<<10) + "\n",
	}
	for name, input := range cases {
		if _, err := ParseTrace(strings.NewReader(input)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

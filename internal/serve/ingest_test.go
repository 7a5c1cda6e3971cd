package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
)

// stdlibIngest decodes body the way the daemon did before decodeIngest:
// a json.Decoder with DisallowUnknownFields. trailing reports that
// something other than JSON whitespace follows the first value.
func stdlibIngest(body []byte) (windows map[string][]monitoring.Invocation, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	tail := body[dec.InputOffset():]
	return req.Windows, len(bytes.TrimLeft(tail, " \t\r\n")) > 0, nil
}

// sameWindows reports the first difference between two decoded bodies,
// telling nil from empty and comparing floats bit for bit.
func sameWindows(got, want map[string][]monitoring.Invocation) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("map: got %d entries (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for fn, w := range want {
		g, ok := got[fn]
		if !ok {
			return fmt.Errorf("function %q missing", fn)
		}
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Errorf("function %q: got %d invocations (nil %v), want %d (nil %v)", fn, len(g), g == nil, len(w), w == nil)
		}
		for i := range w {
			a, b := &g[i], &w[i]
			if a.Start != b.Start || a.Duration != b.Duration || a.ColdStart != b.ColdStart {
				return fmt.Errorf("function %q invocation %d: got %+v, want %+v", fn, i, *a, *b)
			}
			for m := range b.Metrics {
				if math.Float64bits(a.Metrics[m]) != math.Float64bits(b.Metrics[m]) {
					return fmt.Errorf("function %q invocation %d metric %d: got %v, want %v", fn, i, m, a.Metrics[m], b.Metrics[m])
				}
			}
		}
	}
	return nil
}

// ingestSeeds are bodies that exercise encoding/json's quirks on the
// IngestRequest shape.
var ingestSeeds = []string{
	``, ` `, `null`, ` null `, `nul`, `[]`, `"x"`, `1`, `true`, `{}`, `{} `, `{}x`, `null x`,
	`{"windows":{}}`, `{"windows":null}`, `{"windows":[]}`, `{"windows":1}`, `{"other":1}`,
	// Case-insensitive field names, including encoding/json's folding of
	// U+017F to s and its refusal to fold U+0131 to i.
	`{"WINDOWS":{"f":[{"start":1,"DURATION":2,"coldStart":true,"mEtRiCs":[3]}]}}`,
	`{"windows":{"f":[{"ſtart":1}]}}`,
	`{"windowſ":{"f":[{"Start":1}]}}`,
	`{"windows":{"f":[{"Duratıon":1}]}}`,
	`{"windows":{"f":[{"DURATİON":1}]}}`,
	`{"windows":{"f":[{"Start":7}]}}`,
	// null for every field, element and invocation.
	`{"windows":{"f":null}}`,
	`{"windows":{"f":[null,{}]}}`,
	`{"windows":{"f":[{"Start":null,"Duration":null,"ColdStart":null,"Metrics":null}]}}`,
	`{"windows":{"f":[{"Start":5,"Start":null,"Metrics":[1,2],"Metrics":[null,7]}]}}`,
	// Short and long Metrics arrays; extra elements are skipped unchecked.
	`{"windows":{"f":[{"Metrics":[]}]}}`,
	`{"windows":{"f":[{"Metrics":[1.5,-2e-3]}]}}`,
	`{"windows":{"f":[{"Metrics":[` + strings.Repeat("1,", 25) + `{"a":[1e400]},"x",true,null,[[]],1e400]}]}}`,
	`{"windows":{"f":[{"Metrics":[` + strings.Repeat("1,", 25) + `{"a":]}]}}`,
	// Duplicate keys: functions overwrite, windows maps merge.
	`{"windows":{"f":[{"Start":1}],"f":[{"Start":2},{}]}}`,
	`{"windows":{"f":[{"Start":1}],"f":null}}`,
	`{"windows":{"a":[]},"windows":{"b":[]}}`,
	`{"windows":{"a":[]},"windows":null}`,
	`{"windows":null,"windows":{"a":[]}}`,
	// Numbers: Duration takes integers only, Metrics finite floats.
	`{"windows":{"f":[{"Duration":1.5}]}}`,
	`{"windows":{"f":[{"Duration":1e3}]}}`,
	`{"windows":{"f":[{"Duration":"1"}]}}`,
	`{"windows":{"f":[{"Duration":-0,"Start":-9223372036854775808}]}}`,
	`{"windows":{"f":[{"Start":9223372036854775808}]}}`,
	`{"windows":{"f":[{"Metrics":[1e400]}]}}`,
	`{"windows":{"f":[{"Metrics":[-0,1e-400,4.9e-324,1.7976931348623157e308]}]}}`,
	// Numbers the one-pass conversion hands to strconv (a non-zero digit
	// past the 19th, a subnormal, an exponent past float64's range), and
	// a long run of leading fraction zeros, which only moves the point.
	`{"windows":{"f":[{"Metrics":[12345678901234567891,1.00000000000000011102230246251565404236316680908203125]}]}}`,
	`{"windows":{"f":[{"Metrics":[2.2250738585072011e-308,1e-310,-1e99999999999999999999]}]}}`,
	`{"windows":{"f":[{"Metrics":[0.` + strings.Repeat("0", 25) + `1,1e-99999999999999999999]}]}}`,
	`{"windows":{"f":[{"Metrics":[01]}]}}`,
	`{"windows":{"f":[{"Metrics":[1.]}]}}`,
	`{"windows":{"f":[{"Metrics":[-]}]}}`,
	`{"windows":{"f":[{"Metrics":["1"]}]}}`,
	`{"windows":{"f":[{"ColdStart":1}]}}`,
	`{"windows":{"f":[{"Start":true}]}}`,
	// Function IDs with escapes, surrogate pairs and invalid UTF-8.
	`{"windows":{"fé😀\ud800x\"\\\/\b\f\n\r\t":[]}}`,
	"{\"windows\":{\"f\xff\xc3\":[]}}",
	`{"windows":{"f\u00":[]}}`,
	"{\"windows\":{\"f\x01\":[]}}",
	// Syntax errors.
	`{"windows":{"f":[1,]}}`,
	`{"windows":{"f":[{},]}}`,
	`{"windows":{"f":[{"Start":1,}]}}`,
	`{"windows":{"f":[{"Start" 1}]}}`,
	`{"windows":{"f":[{"Start":1}]`,
	`{"windows":{"f":[{"Start":1}]}}}`,
	` { "windows" : { "f" : [ { "Start" : 1 , "Metrics" : [ 1 , 2 ] } ] } } ` + "\n\t\r",
}

// FuzzIngestDecode holds decodeIngest to encoding/json: it must accept
// exactly the bodies a json.Decoder with DisallowUnknownFields accepts
// into an IngestRequest with only whitespace after the object, produce the
// same map bit for bit, and hand every window its own slice.
func FuzzIngestDecode(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add([]byte(s))
	}
	body, err := json.Marshal(IngestRequest{Windows: fleetsynth.Batch(3, 4, 1, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)

	f.Fuzz(func(t *testing.T, body []byte) {
		want, trailing, wantErr := stdlibIngest(body)
		got, err := decodeIngest(body)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("accepted a body encoding/json rejects (%v): %q", wantErr, body)
			}
			return
		case trailing:
			if err == nil {
				t.Fatalf("accepted data after the request object: %q", body)
			}
			return
		case err != nil:
			t.Fatalf("rejected a body encoding/json accepts: %v: %q", err, body)
		}
		if err := sameWindows(got, want); err != nil {
			t.Fatalf("%v: %q", err, body)
		}
		seen := map[*monitoring.Invocation]string{}
		for fn, invs := range got {
			if len(invs) == 0 {
				continue
			}
			if cap(invs) != len(invs) {
				t.Fatalf("function %q: window has spare capacity %d > %d", fn, cap(invs), len(invs))
			}
			if other, ok := seen[&invs[0]]; ok {
				t.Fatalf("functions %q and %q share a window", fn, other)
			}
			seen[&invs[0]] = fn
		}
	})
}

// BenchmarkIngestDecode times the ingest decoder on one body of 16
// functions × 100 invocations, as one POST /v1/ingest carries them, beside
// the encoding/json decode it replaced.
func BenchmarkIngestDecode(b *testing.B) {
	body, err := json.Marshal(IngestRequest{Windows: fleetsynth.Batch(benchFns, benchWindow, 100, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decodeIngest", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeIngest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := stdlibIngest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package nn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"sizeless/internal/jsonscan"
	"sizeless/internal/xrand"
)

// parseNetwork reads one network object from data as a model file's
// reader does: Parse, nothing after the object, then Build.
func parseNetwork(data []byte) (*Network, error) {
	s := jsonscan.Scanner{Data: data}
	s.WS()
	p, err := Parse(&s)
	if err == nil {
		err = s.End("after the network object")
	}
	if err != nil {
		return nil, err
	}
	return p.Build()
}

// refSave is AppendJSON on encoding/json: the network re-nested into
// [layer][out][in] and written by a json.Encoder, newline included.
func refSave(tb testing.TB, n *Network) []byte {
	tb.Helper()
	s := struct {
		Config  Config        `json:"config"`
		Weights [][][]float64 `json:"weights"`
		Biases  [][]float64   `json:"biases"`
	}{Config: n.cfg}
	for _, l := range n.layers {
		w := make([][]float64, l.out)
		for o := range w {
			w[o] = append([]float64(nil), l.row(o)...)
		}
		s.Weights = append(s.Weights, w)
		s.Biases = append(s.Biases, append([]float64(nil), l.b...))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveMatchesEncodingJSON(t *testing.T) {
	x, y := makeLinearData(40, 3, 2, 9)
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{6, 5}, Epochs: 5, Seed: 3, L2: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	// Values at the edges of the float format, in place of trained ones.
	copy(net.layers[0].w, []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -5e-324, math.MaxFloat64})
	b, err := net.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSave(t, net); !bytes.Equal(append(b, '\n'), want) {
		t.Errorf("AppendJSON wrote\n%s\nencoding/json writes\n%s", b, want)
	}
}

// TestAppendFloatMatchesEncodingJSON holds the float formatter to
// encoding/json's on both sides of its switches to exponent form, at the
// ends of float64's range, and on exponents of one, two and three digits.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123456789,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 999999999999999900000,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, // smallest normal
		1e-7, 1.5e-9, 1e-10, 1e-99, 1e-100, 1e-300, 1e22, 1e99, 1e100, 1e300,
	}
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		vals = append(vals, math.Float64frombits(uint64(rng.Int63())<<1|uint64(rng.Intn(2))))
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%b) = %s, encoding/json writes %s", math.Float64bits(v), got, want)
		}
	}
}

// TestSaveRejectsNonFinite: a NaN or infinite weight or bias in any layer
// fails Save and AppendJSON, as encoding/json fails on it.
func TestSaveRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for li := 0; li < 2; li++ {
			for _, part := range []string{"weight", "bias"} {
				name := fmt.Sprintf("layer %d %s %v", li, part, v)
				net, err := New(Config{Inputs: 2, Outputs: 1, Hidden: []int{3}, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if l := net.layers[li]; part == "weight" {
					l.w[len(l.w)-1] = v
				} else {
					l.b[len(l.b)-1] = v
				}
				if _, err := net.AppendJSON(nil); err == nil {
					t.Errorf("%s: AppendJSON succeeded", name)
				}
			}
		}
	}
}

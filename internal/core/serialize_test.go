package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
)

// savedModel is the JSON shape of a persisted model as encoding/json
// decodes it: the reference for LoadModel and Save.
type savedModel struct {
	Base         int               `json:"base"`
	Sizes        []int             `json:"sizes"`
	FeatureNames []string          `json:"features"`
	Targets      []int             `json:"targets"`
	Scaler       *nn.Scaler        `json:"scaler"`
	Networks     []json.RawMessage `json:"networks"`
	Provenance   *Provenance       `json:"provenance,omitempty"`
}

// savedNetwork is the JSON shape of one persisted network.
type savedNetwork struct {
	Config  nn.Config     `json:"config"`
	Weights [][][]float64 `json:"weights"` // [layer][out][in]
	Biases  [][]float64   `json:"biases"`  // [layer][out]
}

// refModel is a model as the reference loader leaves it: the envelope,
// and each network with the config nn.New settles on.
type refModel struct {
	saved savedModel
	nets  []savedNetwork
}

// refLoadModel is LoadModel on encoding/json: a json.Decoder for the
// envelope and another for each network, with every check LoadModel and
// nn's loader make. Like LoadModel, it rejects data after the object.
func refLoadModel(data []byte) (*refModel, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var s savedModel
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, errors.New("data after the model object")
	}
	feats := make([]features.Feature, 0, len(s.FeatureNames))
	for _, name := range s.FeatureNames {
		f, err := features.ByName(name)
		if err != nil {
			return nil, err
		}
		feats = append(feats, f)
	}
	if len(s.Networks) == 0 {
		return nil, errors.New("no networks")
	}
	if s.Scaler == nil || len(s.Scaler.Mean) != len(feats) || len(s.Scaler.Std) != len(feats) {
		return nil, errors.New("scaler does not fit the features")
	}
	m := &refModel{saved: s}
	for _, blob := range s.Networks {
		var sn savedNetwork
		if err := json.NewDecoder(bytes.NewReader(blob)).Decode(&sn); err != nil {
			return nil, err
		}
		if err := refCheckShape(&sn); err != nil {
			return nil, err
		}
		net, err := nn.New(sn.Config)
		if err != nil {
			return nil, err
		}
		if sn.Config = net.Config(); sn.Config.Inputs != len(feats) || sn.Config.Outputs != len(s.Targets) {
			return nil, errors.New("network does not fit the features and targets")
		}
		m.nets = append(m.nets, sn)
	}
	if len(s.Targets) == 0 {
		return nil, errors.New("no target sizes")
	}
	if _, err := features.NewExtractor(feats); err != nil {
		return nil, err
	}
	// Save writes the canonical feature names and drops a zero provenance.
	m.saved.FeatureNames = features.Names(feats)
	if p := s.Provenance; p != nil && *p == (Provenance{}) {
		m.saved.Provenance = nil
	}
	return m, nil
}

// refCheckShape compares a network's weights and biases with the layer
// widths its config declares.
func refCheckShape(s *savedNetwork) error {
	widths := append(append([]int{s.Config.Inputs}, s.Config.Hidden...), s.Config.Outputs)
	for _, w := range widths {
		if w <= 0 {
			return errors.New("layer widths must be positive")
		}
	}
	if len(s.Weights) != len(widths)-1 || len(s.Biases) != len(widths)-1 {
		return errors.New("layer count mismatch")
	}
	for li := range s.Weights {
		if len(s.Weights[li]) != widths[li+1] || len(s.Biases[li]) != widths[li+1] {
			return errors.New("layer shape mismatch")
		}
		for _, row := range s.Weights[li] {
			if len(row) != widths[li] {
				return errors.New("row width mismatch")
			}
		}
	}
	return nil
}

// refSaveModel is Save on encoding/json: each network through a
// json.Encoder, the envelope around them through another.
func refSaveModel(tb testing.TB, m *refModel) []byte {
	tb.Helper()
	s := m.saved
	if len(s.Sizes) == 0 {
		s.Sizes = nil
	}
	s.Networks = nil
	for _, sn := range m.nets {
		var blob bytes.Buffer
		if err := json.NewEncoder(&blob).Encode(sn); err != nil {
			tb.Fatal(err)
		}
		s.Networks = append(s.Networks, blob.Bytes())
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// modelParts splits a saved one-member model into JSON values: the
// envelope fields, and the member's config, weights and biases.
type modelParts struct {
	base, sizes, features, targets, scaler string
	config, weights, biases                string
}

func splitModel(tb testing.TB, saved []byte) modelParts {
	tb.Helper()
	var s savedModel
	if err := json.Unmarshal(saved, &s); err != nil {
		tb.Fatal(err)
	}
	var sn savedNetwork
	if err := json.Unmarshal(s.Networks[0], &sn); err != nil {
		tb.Fatal(err)
	}
	str := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	return modelParts{
		base: str(s.Base), sizes: str(s.Sizes), features: str(s.FeatureNames),
		targets: str(s.Targets), scaler: str(s.Scaler),
		config: str(sn.Config), weights: str(sn.Weights), biases: str(sn.Biases),
	}
}

// object assembles a JSON object from keys and values in order, repeats
// included.
func object(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// network is the member object with extra key/value pairs appended.
func (p modelParts) network(extra ...string) string {
	return object(append([]string{"config", p.config, "weights", p.weights, "biases", p.biases}, extra...)...)
}

// model is the envelope around networks with extra pairs appended.
func (p modelParts) model(networks string, extra ...string) string {
	return object(append([]string{"base", p.base, "sizes", p.sizes, "features", p.features,
		"targets", p.targets, "scaler", p.scaler, "networks", networks}, extra...)...)
}

// modelDecodeSeeds are model files that exercise encoding/json's quirks
// on the persisted shape, built from a real saved model.
func modelDecodeSeeds(tb testing.TB, saved []byte) []string {
	p := splitModel(tb, saved)
	net := p.network()
	one := "[" + net + "]"
	withWeights := func(w string) string { return "[" + strings.Replace(net, p.weights, w, 1) + "]" }
	// rest is the first layer's weights after the first number; row0 is
	// every weight after the first row.
	rest := p.weights[3:]
	rest = rest[strings.IndexAny(rest, ",]"):]
	row0 := p.weights[strings.Index(p.weights, "]")+1:]
	layer0 := p.weights[strings.Index(p.weights, "]],")+3:]
	firstWeight := func(v string) string { return withWeights("[[[" + v + rest) }
	// A row cut short and then decoded again as nulls shows the weights
	// the cut left behind in the row's backing array.
	inputs := strings.Count(p.weights[:strings.Index(p.weights, "]")], ",") + 1
	cut := "[[[1]" + row0
	nulls := "[[[" + strings.Repeat("null,", inputs-1) + "null]" + row0
	unknown := `{"a":[1,{"b":null,"c":"x"}],"d":true,"e":[[[]]]}`
	seeds := []string{
		p.model(one),
		// Keys in any order, and folded key names.
		object("networks", "["+object("biases", p.biases, "weights", p.weights, "config", p.config)+"]",
			"targets", p.targets, "scaler", p.scaler, "features", p.features, "sizes", p.sizes, "base", p.base),
		strings.Replace(strings.Replace(p.model(one), `"weights"`, `"WEIGHTS"`, 1), `"scaler"`, `"ſcaler"`, 1),
		strings.Replace(p.model(one), `"config"`, `"Config"`, 1),
		strings.Replace(p.model(one), `"biases"`, `"bıases"`, 1), // encoding/json does not fold ı to i
		strings.Replace(p.model(one), `"networks"`, `"NETWORKſ"`, 1),
		// Unknown keys with nested values.
		p.model("["+p.network("extra", unknown)+"]", "extra", unknown),
		// A repeated key decodes again into the same value.
		p.model("[" + p.network("weights", p.weights) + "]"),
		p.model("[" + p.network("weights", strings.ReplaceAll(p.weights, "-", "")) + "]"),
		p.model("[" + p.network("weights", "[[[null]]]") + "]"),
		p.model("[" + p.network("weights", "[[]]", "weights", p.weights) + "]"),
		p.model("[" + p.network("weights", "[[[1,2]]]", "weights", "[[[null,null,null]]]") + "]"),
		p.model("[" + p.network("weights", cut, "weights", nulls) + "]"),
		p.model("[" + p.network("weights", cut, "weights", "[]", "weights", nulls) + "]"),
		p.model("[" + p.network("weights", "[[],"+layer0, "weights", nulls) + "]"),
		p.model("[" + p.network("biases", "[[null],null]") + "]"),
		p.model("[" + p.network("biases", "[]", "biases", p.biases) + "]"),
		p.model("[" + p.network("config", `{"L2":0.5,"Hidden":[4]}`) + "]"),
		p.model("[" + p.network("config", `{"Inputs":1}`) + "]"),
		p.model("[" + p.network("config", `{"Optimizer":"rmsprop"}`) + "]"),
		p.model("[" + p.network("config", `{"LearningRate":0,"BatchSize":null}`) + "]"),
		p.model(one, "scaler", `{"Mean":[1,2]}`),
		p.model(one, "scaler", `{"Std":null}`),
		p.model(one, "sizes", `[null,1]`),
		p.model(`[{"weights":"x"}]`, "networks", one),
		p.model(one, "networks", `[{"weights":"x"}]`),
		p.model(`[{"weights":[}]`, "networks", one),
		p.model(one, "networks", "["+net+","+net+"]"),
		p.model(one, "provenance", `{"fine_tuned":true,"epochs":3}`, "provenance", `{"epochs":4}`),
		p.model(one, "provenance", `{}`),
		p.model(one, "features", `["mean_heap_used"]`),
		// networks before config, and numbers at the edges of float64 and
		// of the JSON grammar.
		object("networks", one, "base", p.base, "sizes", p.sizes, "features", p.features, "targets", p.targets, "scaler", p.scaler),
		p.model(firstWeight("1e400")),
		p.model(firstWeight("-0")),
		p.model(firstWeight("1e-7")),
		p.model(firstWeight("5e-324")),
		p.model(firstWeight("2.2250738585072011e-308")),
		p.model(firstWeight("1e-310")),
		p.model(firstWeight("12345678901234567891")),
		p.model(firstWeight("1.00000000000000011102230246251565404236316680908203125")),
		p.model(firstWeight("1e99999999999999999999")),
		p.model(firstWeight("0." + strings.Repeat("0", 25) + "1")),
		p.model(firstWeight("1E+2")),
		p.model(firstWeight("01")),
		p.model(firstWeight("1.")),
		p.model(firstWeight(`"1"`)),
		p.model(firstWeight("null")),
		p.model(firstWeight("[1]")),
		// null layers, rows and members.
		p.model(withWeights("[[null" + row0)),
		p.model(withWeights("[null," + layer0)),
		p.model("[null]"),
		p.model("[null," + net + "]"),
		// Trailing data, and PR 15's crash inputs.
		string(saved) + " \n",
		string(saved) + "{}",
		crashHugeNetwork,
		string(crashShortStd(tb, saved)),
		"null", "", "[]", " ", `{"networks":null}`,
	}
	// null for every field of the envelope and the member, before and
	// after the field's own value.
	for _, key := range []string{"base", "sizes", "features", "targets", "scaler", "networks", "provenance"} {
		seeds = append(seeds, p.model(one, key, "null"), fmt.Sprintf("{%q:null,", key)+p.model(one)[1:])
	}
	for _, key := range []string{"config", "weights", "biases"} {
		seeds = append(seeds, p.model("["+p.network(key, "null")+"]"),
			p.model("["+fmt.Sprintf("{%q:null,", key)+net[1:]+"]"))
	}
	return seeds
}

// FuzzModelDecode holds LoadModel to the encoding/json reference: both
// accept and reject the same files, an accepted file yields the same model
// (compared by the reference's saved bytes), and Save writes the bytes the
// reference writes.
func FuzzModelDecode(f *testing.F) {
	saved, _ := fuzzSeedModel(f)
	for i := 0; i <= len(saved); i++ {
		f.Add(saved[:i])
	}
	for _, s := range modelDecodeSeeds(f, saved) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, refErr := refLoadModel(data)
		m, err := LoadModel(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("LoadModel error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		wantSaved := refSaveModel(t, want)
		var got bytes.Buffer
		if err := m.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantSaved) {
			t.Fatalf("Save wrote\n%s\nthe reference saves\n%s", got.Bytes(), wantSaved)
		}
		// What Save wrote is what the reference writes for the same model.
		again, err := refLoadModel(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refSaveModel(t, again), wantSaved) {
			t.Fatal("the reference does not read back what Save wrote")
		}
		if fp, err := m.Fingerprint(); err != nil || fp != fingerprintOf(wantSaved) {
			t.Fatalf("Fingerprint = %s, %v; want the hash of the saved bytes", fp, err)
		}
	})
}

// TestSaveMatchesReference checks Save against the encoding/json encoder
// on trained models, with and without provenance.
func TestSaveMatchesReference(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultModelConfig(platform.Mem256)
	cfg.Hidden = []int{8, 8}
	cfg.Epochs = 3
	cfg.EnsembleSize = 2
	m, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := FineTune(context.Background(), m, ds, FineTuneOptions{Epochs: 2, Source: "a<b", Target: "c&d"})
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]*Model{"trained": m, "fine-tuned": tuned} {
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		ref, err := refLoadModel(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refSaveModel(t, ref); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: Save differs from the encoding/json encoder", name)
		}
	}
}

// TestSaveRejectsNonFinite checks that a NaN or infinite scaler value, or
// a network trained into NaN weights, fails Save and Fingerprint, as
// encoding/json fails on them. nn's TestSaveRejectsNonFinite puts each
// value into single weights and biases, which this package cannot reach.
func TestSaveRejectsNonFinite(t *testing.T) {
	saved, _ := fuzzSeedModel(t)
	cases := map[string]func(*Model) error{
		"network trained on a NaN target": func(m *Model) error {
			x := [][]float64{make([]float64, len(m.scaler.Mean))}
			y := [][]float64{make([]float64, len(m.targets))}
			y[0][0] = math.NaN()
			s, err := m.nets[0].NewSession(x, y, 1, nn.Validation{})
			if err != nil {
				return err
			}
			_, err = s.Train(context.Background(), 1, nil)
			return err
		},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases[fmt.Sprintf("scaler mean %v", v)] = func(m *Model) error { m.scaler.Mean[1] = v; return nil }
		cases[fmt.Sprintf("scaler std %v", v)] = func(m *Model) error { m.scaler.Std[0] = v; return nil }
	}
	for name, poison := range cases {
		m, err := LoadModel(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		if err := poison(m); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: Save succeeded", name)
		}
		if fp, err := m.Fingerprint(); err == nil {
			t.Errorf("%s: Fingerprint = %s, want an error", name, fp)
		}
	}
}

// TestFingerprintComputedOnce checks the memo: Save records the hash of
// the bytes it wrote, and Fingerprint returns it without encoding again.
func TestFingerprintComputedOnce(t *testing.T) {
	saved, _ := fuzzSeedModel(t)
	m, err := LoadModel(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want := fingerprintOf(buf.Bytes())
	if m.fp != want {
		t.Fatalf("Save recorded fingerprint %q, want %s", m.fp, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if fp, err := m.Fingerprint(); err != nil || fp != want {
			t.Fatalf("Fingerprint = %s, %v; want %s", fp, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("Fingerprint allocated %v times per call after Save", allocs)
	}
}

// TestFingerprintConcurrent races first Fingerprint and Save calls on a
// fresh model: every caller sees the hash of the bytes Save writes.
func TestFingerprintConcurrent(t *testing.T) {
	saved, _ := fuzzSeedModel(t)
	m, err := LoadModel(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintOf(saved)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), saved) {
				t.Errorf("Save: %v, or the bytes differ from the loaded file", err)
			}
			if fp, err := m.Fingerprint(); err != nil || fp != want {
				t.Errorf("Fingerprint = %s, %v; want %s", fp, err, want)
			}
		}()
	}
	wg.Wait()
}

// paperModel trains the paper-size model (4 × 256 hidden, an ensemble of
// three) for a single epoch: its file has the paper model's size.
func paperModel(b *testing.B) *Model {
	b.Helper()
	cfg := DefaultModelConfig(platform.Mem256)
	cfg.Hidden = []int{256, 256, 256, 256}
	cfg.EnsembleSize = 3
	cfg.Epochs = 1
	m, err := Train(context.Background(), testDataset(b), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkModelSave(b *testing.B) {
	m := paperModel(b)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := paperModel(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadModel(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

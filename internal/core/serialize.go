package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"sizeless/internal/features"
	"sizeless/internal/jsonscan"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
)

// A persisted model is one line of JSON: the fields of modelHead, then
// "networks" with one nn network object per ensemble member, then, for
// adapted models only, "provenance":
//
//	{"base":…,"sizes":[…],"features":[…],"targets":[…],"scaler":{…},"networks":[…],"provenance":{…}}
//
// These are the bytes encoding/json writes for that shape. The networks
// hold almost all of the file; they are written and read by hand
// (nn.Network.AppendJSON, nn.Parse), and every other field goes through
// encoding/json.
type modelHead struct {
	Base         int        `json:"base"`
	Sizes        []int      `json:"sizes"`
	FeatureNames []string   `json:"features"`
	Targets      []int      `json:"targets"`
	Scaler       *nn.Scaler `json:"scaler"`
}

// appendModel appends the model file, final newline included, to b.
func appendModel(m *Model, b []byte) ([]byte, error) {
	h := modelHead{
		Base:         int(m.cfg.Base),
		FeatureNames: features.Names(m.cfg.Features),
		Scaler:       m.scaler,
	}
	for _, sz := range m.cfg.Sizes {
		h.Sizes = append(h.Sizes, int(sz))
	}
	for _, t := range m.targets {
		h.Targets = append(h.Targets, int(t))
	}
	head, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("core: save: %w", err)
	}
	if b == nil {
		b = make([]byte, 0, len(head)+savedSizeHint(m))
	}
	b = append(b, head[:len(head)-1]...) // reopen the object
	b = append(b, `,"networks":[`...)
	for i, net := range m.nets {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = net.AppendJSON(b); err != nil {
			return nil, fmt.Errorf("core: save: %w", err)
		}
	}
	b = append(b, ']')
	if m.prov != (Provenance{}) {
		prov, err := json.Marshal(m.prov)
		if err != nil {
			return nil, fmt.Errorf("core: save: %w", err)
		}
		b = append(append(b, `,"provenance":`...), prov...)
	}
	return append(b, "}\n"...), nil
}

// savedSizeHint is a little over the bytes the networks usually take
// encoded: about 21 bytes a weight or bias, comma included.
func savedSizeHint(m *Model) int {
	params := 0
	for _, net := range m.nets {
		c := net.Config()
		in := c.Inputs
		for _, out := range c.Hidden {
			params += (in + 1) * out
			in = out
		}
		params += (in + 1) * c.Outputs
	}
	return 22*params + 1024
}

func saveModel(m *Model, w io.Writer) error {
	b, err := appendModel(m, nil)
	if err != nil {
		return err
	}
	m.fpOnce.Do(func() { m.fp = fingerprintOf(b) })
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

func fingerprintOf(saved []byte) string {
	h := fnv.New64a()
	h.Write(saved)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint returns a stable 64-bit FNV-1a hash of the model's
// serialized form, hex-encoded. Saving is deterministic (ordered JSON
// fields, shortest-round-trip floats), so two models fingerprint equal
// exactly when their persisted state — weights, scaler, grid, provenance —
// is identical. The serve daemon stamps it into snapshot headers so an
// operator can tell which model generation a fleet snapshot belongs to.
//
// It is computed once per model: the persisted state never changes after
// Train, LoadModel or FineTune returns, so the first Fingerprint or Save
// records the hash (or the error) and later calls return the record.
func (m *Model) Fingerprint() (string, error) {
	m.fpOnce.Do(func() {
		b, err := appendModel(m, nil)
		if err != nil {
			m.fpErr = fmt.Errorf("core: fingerprint: %w", err)
			return
		}
		m.fp = fingerprintOf(b)
	})
	return m.fp, m.fpErr
}

// parsedModel is a model file as parseModel read it.
type parsedModel struct {
	modelHead
	Provenance *Provenance
	networks   []parsedNetwork
}

// parsedNetwork is one member of the networks array, or the error that
// kept it from parsing.
type parsedNetwork struct {
	net *nn.Parsed
	err error
}

// LoadModel reconstructs a model persisted with Model.Save. Only the parts
// needed for prediction are restored (weights, scaler, feature set).
//
// It reads the whole reader, which must hold one model object and nothing
// after it but JSON whitespace, and decodes it in one pass. It accepts the
// files encoding/json accepts into the persisted shape — keys in any
// order, matched case-insensitively, unknown keys skipped, a repeated key
// decoded again — and builds the same model from them. Unlike a
// json.Decoder, it rejects data after the object.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	s, err := parseModel(data)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	feats := make([]features.Feature, 0, len(s.FeatureNames))
	for _, name := range s.FeatureNames {
		f, err := features.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		feats = append(feats, f)
	}
	if len(s.networks) == 0 {
		return nil, fmt.Errorf("core: load: no networks")
	}
	if s.Scaler == nil {
		return nil, fmt.Errorf("core: load: missing scaler")
	}
	if len(s.Scaler.Mean) != len(feats) || len(s.Scaler.Std) != len(feats) {
		return nil, fmt.Errorf("core: load: scaler has %d means and %d deviations for %d features",
			len(s.Scaler.Mean), len(s.Scaler.Std), len(feats))
	}
	nets := make([]*nn.Network, 0, len(s.networks))
	for i, pn := range s.networks {
		if pn.err != nil {
			return nil, fmt.Errorf("core: load: network %d: %w", i, pn.err)
		}
		net, err := pn.net.Build()
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		if c := net.Config(); c.Inputs != len(feats) || c.Outputs != len(s.Targets) {
			return nil, fmt.Errorf("core: load: network %d maps %d inputs to %d outputs, want %d features to %d targets",
				i, c.Inputs, c.Outputs, len(feats), len(s.Targets))
		}
		nets = append(nets, net)
	}
	m := &Model{
		cfg: ModelConfig{
			Base:     platform.MemorySize(s.Base),
			Features: feats,
		},
		scaler: s.Scaler,
		nets:   nets,
	}
	if s.Provenance != nil {
		m.prov = *s.Provenance
	}
	for _, sz := range s.Sizes {
		m.cfg.Sizes = append(m.cfg.Sizes, platform.MemorySize(sz))
	}
	for _, t := range s.Targets {
		m.targets = append(m.targets, platform.MemorySize(t))
	}
	if len(m.targets) == 0 {
		return nil, fmt.Errorf("core: load: no target sizes")
	}
	if err := m.initDerived(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return m, nil
}

// readAll is io.ReadAll with the buffer sized once when r reports how
// many bytes it holds, as bytes.Reader and bytes.Buffer do.
func readAll(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, l.Len()+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// parseModel decodes a whole model file. Every field but networks is
// handed to encoding/json, into the field's own type.
func parseModel(data []byte) (*parsedModel, error) {
	s := &jsonscan.Scanner{Data: data}
	pm := &parsedModel{}
	s.WS()
	isNull, err := s.Enter('{', "core model")
	if err != nil {
		return nil, err
	}
	for n := 0; !isNull; n++ {
		more, err := s.Next('}', n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		tok, plain, err := s.Key()
		if err != nil {
			return nil, err
		}
		switch {
		case jsonscan.FieldIs(tok, plain, "BASE"):
			err = s.Unmarshal(&pm.Base)
		case jsonscan.FieldIs(tok, plain, "SIZES"):
			err = s.Unmarshal(&pm.Sizes)
		case jsonscan.FieldIs(tok, plain, "FEATURES"):
			err = s.Unmarshal(&pm.FeatureNames)
		case jsonscan.FieldIs(tok, plain, "TARGETS"):
			err = s.Unmarshal(&pm.Targets)
		case jsonscan.FieldIs(tok, plain, "SCALER"):
			err = s.Unmarshal(&pm.Scaler)
		case jsonscan.FieldIs(tok, plain, "NETWORKS"):
			err = pm.parseNetworks(s)
		case jsonscan.FieldIs(tok, plain, "PROVENANCE"):
			err = s.Unmarshal(&pm.Provenance)
		default:
			err = s.Skip()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.End("after the model object"); err != nil {
		return nil, err
	}
	return pm, nil
}

// parseNetworks decodes the networks value, an array or null, in place of
// any list a repeated key decoded before. encoding/json holds each member
// as raw bytes until the whole file has decoded, so a member that does not
// parse fails the load only if no later networks key replaces it; until
// then only its syntax counts, and it is kept with its error.
func (pm *parsedModel) parseNetworks(s *jsonscan.Scanner) error {
	pm.networks = pm.networks[:0]
	if isNull, err := s.Enter('[', "networks"); isNull || err != nil {
		return err
	}
	for n := 0; ; n++ {
		more, err := s.Next(']', n)
		if err != nil || !more {
			return err
		}
		mark := *s
		net, err := nn.Parse(s)
		if err != nil {
			*s = mark
			if err := s.Skip(); err != nil {
				return err
			}
		}
		pm.networks = append(pm.networks, parsedNetwork{net, err})
	}
}

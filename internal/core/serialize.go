package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
)

// savedModel is the JSON shape of a persisted model.
type savedModel struct {
	Base         int        `json:"base"`
	Sizes        []int      `json:"sizes"`
	FeatureNames []string   `json:"features"`
	Targets      []int      `json:"targets"`
	Scaler       *nn.Scaler `json:"scaler"`
	// Networks holds one nn-package JSON blob per ensemble member.
	Networks []json.RawMessage `json:"networks"`
	// Provenance records transfer-learning lineage for adapted models.
	// Omitted for models trained from scratch; absent in model files
	// written before adaptation metadata existed.
	Provenance *Provenance `json:"provenance,omitempty"`
}

func saveModel(m *Model, w io.Writer) error {
	s := savedModel{
		Base:         int(m.cfg.Base),
		FeatureNames: features.Names(m.cfg.Features),
		Scaler:       m.scaler,
	}
	if m.prov != (Provenance{}) {
		prov := m.prov
		s.Provenance = &prov
	}
	for _, net := range m.nets {
		var netBuf bytes.Buffer
		if err := net.Save(&netBuf); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		s.Networks = append(s.Networks, json.RawMessage(netBuf.Bytes()))
	}
	for _, sz := range m.cfg.Sizes {
		s.Sizes = append(s.Sizes, int(sz))
	}
	for _, t := range m.targets {
		s.Targets = append(s.Targets, int(t))
	}
	if err := json.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Fingerprint returns a stable 64-bit FNV-1a hash of the model's
// serialized form, hex-encoded. Saving is deterministic (ordered JSON
// fields, shortest-round-trip floats), so two models fingerprint equal
// exactly when their persisted state — weights, scaler, grid, provenance —
// is identical. The serve daemon stamps it into snapshot headers so an
// operator can tell which model generation a fleet snapshot belongs to.
func (m *Model) Fingerprint() (string, error) {
	h := fnv.New64a()
	if err := saveModel(m, h); err != nil {
		return "", fmt.Errorf("core: fingerprint: %w", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// LoadModel reconstructs a model persisted with Model.Save. Only the parts
// needed for prediction are restored (weights, scaler, feature set).
func LoadModel(r io.Reader) (*Model, error) {
	var s savedModel
	if err := json.NewDecoder(r).Decode(&s); err != nil {
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
	if len(s.Networks) == 0 {
		return nil, fmt.Errorf("core: load: no networks")
	}
	if s.Scaler == nil {
		return nil, fmt.Errorf("core: load: missing scaler")
	}
	if len(s.Scaler.Mean) != len(feats) || len(s.Scaler.Std) != len(feats) {
		return nil, fmt.Errorf("core: load: scaler has %d means and %d deviations for %d features",
			len(s.Scaler.Mean), len(s.Scaler.Std), len(feats))
	}
	nets := make([]*nn.Network, 0, len(s.Networks))
	for i, blob := range s.Networks {
		net, err := nn.Load(bytes.NewReader(blob))
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

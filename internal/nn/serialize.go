package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// serialized is the on-disk representation of a network. The JSON shape
// (nested [layer][out][in] weights) predates the flat-weight engine and is
// kept byte-for-byte compatible: Save re-nests the flat rows and Load
// flattens them back, so model files written by any engine version load in
// any other.
type serialized struct {
	Config  Config        `json:"config"`
	Weights [][][]float64 `json:"weights"` // [layer][out][in]
	Biases  [][]float64   `json:"biases"`  // [layer][out]
}

// Save writes the network (architecture + weights) as JSON.
func (n *Network) Save(w io.Writer) error {
	s := serialized{Config: n.cfg}
	for _, l := range n.layers {
		wCopy := make([][]float64, l.out)
		for o := range wCopy {
			wCopy[o] = append([]float64(nil), l.row(o)...)
		}
		s.Weights = append(s.Weights, wCopy)
		s.Biases = append(s.Biases, append([]float64(nil), l.b...))
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reconstructs a network saved with Save. Optimizer state is not
// persisted; a loaded network predicts identically but restarts training
// statistics from zero.
func Load(r io.Reader) (*Network, error) {
	var s serialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if err := s.checkShape(); err != nil {
		return nil, err
	}
	n, err := New(s.Config)
	if err != nil {
		return nil, err
	}
	for li, l := range n.layers {
		for o := 0; o < l.out; o++ {
			copy(l.row(o), s.Weights[li][o])
		}
		copy(l.b, s.Biases[li])
	}
	return n, nil
}

// checkShape compares the serialized weights and biases with the layer
// widths the config declares. It runs before New, so a config that claims
// more weights than the file holds is rejected instead of sizing an
// allocation.
func (s *serialized) checkShape() error {
	widths := append(append([]int{s.Config.Inputs}, s.Config.Hidden...), s.Config.Outputs)
	for _, w := range widths {
		if w <= 0 {
			return errors.New("nn: load: layer widths must be positive")
		}
	}
	layers := len(widths) - 1
	if len(s.Weights) != layers || len(s.Biases) != layers {
		return errors.New("nn: load: layer count mismatch")
	}
	for li := 0; li < layers; li++ {
		in, out := widths[li], widths[li+1]
		if len(s.Weights[li]) != out || len(s.Biases[li]) != out {
			return fmt.Errorf("nn: load: layer %d shape mismatch", li)
		}
		for o, row := range s.Weights[li] {
			if len(row) != in {
				return fmt.Errorf("nn: load: layer %d row %d width mismatch", li, o)
			}
		}
	}
	return nil
}

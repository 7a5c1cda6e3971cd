package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"sizeless/internal/jsonscan"
)

// The on-disk representation of a network is one JSON object,
//
//	{"config":{…},"weights":[layer][out][in],"biases":[layer][out]}
//
// The nested weights predate the flat-weight engine and are kept
// byte-for-byte compatible: AppendJSON writes the bytes encoding/json
// writes for that shape, and Parse reads any file encoding/json reads into
// it, so model files written by any engine version load in any other.

// AppendJSON appends the network's compact JSON form to b. A NaN or
// infinite weight or bias is an error, as it is for encoding/json.
func (n *Network) AppendJSON(b []byte) ([]byte, error) {
	cfg, err := json.Marshal(n.cfg)
	if err != nil {
		return nil, fmt.Errorf("nn: save: %w", err)
	}
	b = append(append(b, `{"config":`...), cfg...)
	b = append(b, `,"weights":[`...)
	for li, l := range n.layers {
		if li > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for o := 0; o < l.out; o++ {
			if o > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloats(b, l.row(o)); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `],"biases":[`...)
	for li, l := range n.layers {
		if li > 0 {
			b = append(b, ',')
		}
		if b, err = appendFloats(b, l.b); err != nil {
			return nil, err
		}
	}
	return append(b, "]}"...), nil
}

// appendFloats appends vs as a JSON array.
func appendFloats(b []byte, vs []float64) ([]byte, error) {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("nn: save: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		b = appendFloat(b, v)
	}
	return append(b, ']'), nil
}

// appendFloat appends the finite v as encoding/json formats a float64:
// the shortest decimal that parses back to v, in exponent form only below
// 1e-6 or from 1e21 in magnitude, with a two-digit negative exponent
// cleaned up from e-07 to e-7.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Parsed is one network read by Parse: its config, weight rows and bias
// rows as the file holds them, not yet checked against each other.
type Parsed struct {
	cfg     Config
	weights []rows // one [out][in] value per layer
	biases  rows   // [layer][out]
}

// rows is one [][]float64 value of the file, kept as encoding/json leaves
// a [][]float64 it decodes into, but with every row inside the one backing
// array vals, which grows as the numbers arrive. A row that grows past its
// capacity moves to the end of vals, so rows never overlap.
type rows struct {
	vals  []float64
	spans []span
}

// span is one row: its elements are vals[off:off+len], and
// vals[off+len:off+cap] keeps what an earlier, longer decode of the row
// left there, which a later decode may expose again.
type span struct{ off, len, cap int }

// Parse decodes the network value at s.Pos, a JSON object or null. It
// decodes as encoding/json decodes into the nested shape: keys match field
// names case-insensitively, unknown keys are skipped, a repeated key
// decodes again into the same slices (reusing what they hold), and null
// leaves a number as it was and empties a slice. The config goes through
// encoding/json itself. Nothing is sized from the config: the rows grow
// with the numbers the file holds, and Build checks them against it.
func Parse(s *jsonscan.Scanner) (*Parsed, error) {
	p := &Parsed{}
	if isNull, err := s.Enter('{', "nn network"); isNull || err != nil {
		return p, err
	}
	for n := 0; ; n++ {
		more, err := s.Next('}', n)
		if err != nil || !more {
			return p, err
		}
		tok, plain, err := s.Key()
		if err != nil {
			return nil, err
		}
		switch {
		case jsonscan.FieldIs(tok, plain, "CONFIG"):
			err = s.Unmarshal(&p.cfg)
		case jsonscan.FieldIs(tok, plain, "WEIGHTS"):
			err = p.parseWeights(s)
		case jsonscan.FieldIs(tok, plain, "BIASES"):
			err = p.biases.parse(s)
		default:
			err = s.Skip()
		}
		if err != nil {
			return nil, err
		}
	}
}

// extend makes index i of list addressable the way encoding/json grows a
// slice it decodes an array into: past len but within cap, an element
// keeps its old value.
func extend[T any](list []T, i int) []T {
	if i >= cap(list) {
		var zero T
		list = append(list[:cap(list)], zero)
	}
	if i >= len(list) {
		list = list[:i+1]
	}
	return list
}

// parseWeights decodes the weights value: one [][]float64 per layer.
func (p *Parsed) parseWeights(s *jsonscan.Scanner) error {
	if isNull, err := s.Enter('[', "nn weights"); isNull || err != nil {
		p.weights = nil
		return err
	}
	i := 0
	for ; ; i++ {
		more, err := s.Next(']', i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		p.weights = extend(p.weights, i)
		if err := p.weights[i].parse(s); err != nil {
			return err
		}
	}
	if p.weights = p.weights[:i]; i == 0 {
		p.weights = nil
	}
	return nil
}

// parse decodes a [][]float64 value into r.
func (r *rows) parse(s *jsonscan.Scanner) error {
	if isNull, err := s.Enter('[', "[][]float64"); isNull || err != nil {
		*r = rows{}
		return err
	}
	i := 0
	for ; ; i++ {
		more, err := s.Next(']', i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		r.spans = extend(r.spans, i)
		if err := r.parseRow(s, &r.spans[i]); err != nil {
			return err
		}
	}
	if r.spans = r.spans[:i]; i == 0 {
		*r = rows{}
	}
	return nil
}

// parseRow decodes a []float64 value into the row sp of r.
func (r *rows) parseRow(s *jsonscan.Scanner, sp *span) error {
	if isNull, err := s.Enter('[', "[]float64"); isNull || err != nil {
		*sp = span{}
		return err
	}
	i := 0
	for ; ; i++ {
		more, err := s.Next(']', i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i >= sp.cap {
			r.grow(sp)
		}
		if i >= sp.len {
			sp.len = i + 1
		}
		if isNull, err := s.Null(); err != nil {
			return err
		} else if isNull {
			continue
		}
		f, err := s.Float("[]float64 element")
		if err != nil {
			return err
		}
		r.vals[sp.off+i] = f
	}
	if sp.len = i; i == 0 {
		*sp = span{}
	}
	return nil
}

// grow adds one zeroed element of capacity to the row sp: in place when
// the row ends vals, else by moving it to the end of vals first.
func (r *rows) grow(sp *span) {
	if sp.off+sp.cap != len(r.vals) {
		off := len(r.vals)
		r.vals = append(r.vals, r.vals[sp.off:sp.off+sp.cap]...)
		sp.off = off
	}
	r.vals = append(r.vals, 0)
	sp.cap++
}

// row returns row i.
func (r *rows) row(i int) []float64 {
	sp := r.spans[i]
	return r.vals[sp.off : sp.off+sp.len]
}

// flat copies the rows into one row-major array of exactly their size.
func (r *rows) flat() []float64 {
	n := 0
	for _, sp := range r.spans {
		n += sp.len
	}
	w := make([]float64, 0, n)
	for i := range r.spans {
		w = append(w, r.row(i)...)
	}
	return w
}

// Build checks the parsed weights and biases against the layer widths the
// config declares and builds the network around them. The check comes
// first, so a config that claims more weights than the file holds is
// rejected instead of sizing an allocation.
func (p *Parsed) Build() (*Network, error) {
	widths := append(append([]int{p.cfg.Inputs}, p.cfg.Hidden...), p.cfg.Outputs)
	for _, w := range widths {
		if w <= 0 {
			return nil, errors.New("nn: load: layer widths must be positive")
		}
	}
	layers := len(widths) - 1
	if len(p.weights) != layers || len(p.biases.spans) != layers {
		return nil, errors.New("nn: load: layer count mismatch")
	}
	for li := 0; li < layers; li++ {
		in, out := widths[li], widths[li+1]
		if len(p.weights[li].spans) != out || p.biases.spans[li].len != out {
			return nil, fmt.Errorf("nn: load: layer %d shape mismatch", li)
		}
		for o, sp := range p.weights[li].spans {
			if sp.len != in {
				return nil, fmt.Errorf("nn: load: layer %d row %d width mismatch", li, o)
			}
		}
	}
	n, err := newLayers(p.cfg)
	if err != nil {
		return nil, err
	}
	for li, l := range n.layers {
		l.w = p.weights[li].flat()
		l.b = append([]float64(nil), p.biases.row(li)...)
	}
	return n, nil
}

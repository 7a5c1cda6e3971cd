package platform

import (
	"fmt"
	"sort"
)

// Grid describes the deployable memory sizes of one FaaS platform. Two
// shapes exist in the wild: stepped ranges (AWS Lambda: 128–3008 MB in
// 64 MB increments) and discrete tier lists (GCP Cloud Functions gen1:
// seven fixed tiers). A Grid expresses both; the zero Grid is "unspecified"
// and Config.ValidSize falls back to the AWS Lambda grid of the paper.
type Grid struct {
	// Min, Max, Step describe a stepped range. Used when Discrete is nil.
	Min, Max, Step MemorySize
	// Discrete lists explicit tiers (takes precedence over the range).
	Discrete []MemorySize
}

// SteppedGrid returns a range grid: every size in [min, max] that is a
// multiple of step away from min.
func SteppedGrid(min, max, step MemorySize) Grid {
	return Grid{Min: min, Max: max, Step: step}
}

// DiscreteGrid returns a tier-list grid. The slice is copied and sorted.
func DiscreteGrid(sizes ...MemorySize) Grid {
	out := append([]MemorySize(nil), sizes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Grid{Discrete: out}
}

// IsZero reports whether the grid is unspecified.
func (g Grid) IsZero() bool {
	return g.Discrete == nil && g.Min == 0 && g.Max == 0 && g.Step == 0
}

// Valid reports whether m is deployable on this grid.
func (g Grid) Valid(m MemorySize) bool {
	if g.Discrete != nil {
		for _, s := range g.Discrete {
			if s == m {
				return true
			}
		}
		return false
	}
	if g.Step <= 0 {
		return m >= g.Min && m <= g.Max
	}
	return m >= g.Min && m <= g.Max && (m-g.Min)%g.Step == 0
}

// Sizes enumerates every deployable size in ascending order. The returned
// slice is a fresh copy; callers may modify it.
func (g Grid) Sizes() []MemorySize {
	if g.Discrete != nil {
		return append([]MemorySize(nil), g.Discrete...)
	}
	if g.Step <= 0 || g.Max < g.Min {
		return nil
	}
	out := make([]MemorySize, 0, int((g.Max-g.Min)/g.Step)+1)
	for m := g.Min; m <= g.Max; m += g.Step {
		out = append(out, m)
	}
	return out
}

// Nearest snaps m to the closest deployable size, preferring the smaller
// size on ties. It returns 0 for an empty grid.
func (g Grid) Nearest(m MemorySize) MemorySize {
	return Nearest(m, g.Sizes())
}

// Parse parses strings like "512" or "512MB" and validates the result
// against the grid.
func (g Grid) Parse(s string) (MemorySize, error) {
	v, err := parseMemoryValue(s)
	if err != nil {
		return 0, err
	}
	if !g.Valid(v) {
		return 0, fmt.Errorf("platform: memory size %v not on grid %v", v, g)
	}
	return v, nil
}

// String implements fmt.Stringer.
func (g Grid) String() string {
	if g.Discrete != nil {
		return fmt.Sprintf("tiers%v", g.Discrete)
	}
	return fmt.Sprintf("%v..%v/%v", g.Min, g.Max, g.Step)
}

package features

import (
	"errors"
	"math"
)

// Evaluator scores a candidate feature subset: it receives the feature
// matrix restricted to the candidate columns plus the target matrix and
// returns a cross-validated error (lower is better). The modeling layer
// supplies an evaluator that trains the paper's neural network.
type Evaluator func(x [][]float64, y [][]float64) (float64, error)

// SelectionResult reports one sequential-forward-selection run.
type SelectionResult struct {
	// Order lists feature indices in the order they were selected.
	Order []int
	// Curve[k] is the best error achieved with k+1 features — the series
	// plotted in paper Fig. 4.
	Curve []float64
	// BestK is the number of features minimizing the curve.
	BestK int
}

// ForwardSelect runs sequential forward feature selection (paper §3.4,
// "inspired by [27]"): starting from the empty set, it greedily adds the
// feature that minimizes the evaluator's error, up to maxK features (0 =
// all), and reports the error curve.
func ForwardSelect(x [][]float64, y [][]float64, nFeatures, maxK int, eval Evaluator) (SelectionResult, error) {
	if len(x) == 0 || len(x) != len(y) {
		return SelectionResult{}, errors.New("features: empty or mismatched selection data")
	}
	if nFeatures <= 0 {
		return SelectionResult{}, errors.New("features: no candidate features")
	}
	if maxK <= 0 || maxK > nFeatures {
		maxK = nFeatures
	}

	selected := make([]int, 0, maxK)
	inSet := make([]bool, nFeatures)
	curve := make([]float64, 0, maxK)

	for len(selected) < maxK {
		bestIdx := -1
		bestErr := math.Inf(1)
		for f := 0; f < nFeatures; f++ {
			if inSet[f] {
				continue
			}
			cand := append(append([]int(nil), selected...), f)
			sub := columns(x, cand)
			e, err := eval(sub, y)
			if err != nil {
				return SelectionResult{}, err
			}
			if e < bestErr {
				bestErr = e
				bestIdx = f
			}
		}
		if bestIdx < 0 {
			break
		}
		selected = append(selected, bestIdx)
		inSet[bestIdx] = true
		curve = append(curve, bestErr)
	}

	bestK := 1
	bestErr := curve[0]
	for k, e := range curve {
		if e < bestErr {
			bestErr = e
			bestK = k + 1
		}
	}
	return SelectionResult{Order: selected, Curve: curve, BestK: bestK}, nil
}

// columns projects x onto the given column indices.
func columns(x [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		sub := make([]float64, len(idx))
		for j, c := range idx {
			sub[j] = row[c]
		}
		out[i] = sub
	}
	return out
}

// Subset returns the features at the given indices.
func Subset(feats []Feature, idx []int) []Feature {
	out := make([]Feature, len(idx))
	for i, j := range idx {
		out[i] = feats[j]
	}
	return out
}

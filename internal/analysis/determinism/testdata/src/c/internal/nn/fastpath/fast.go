// Package fastpath sits under internal/nn: the parallel-accumulation rule
// applies in full. Worker closures handed to pool.Run must not fold floats
// into shared accumulators — the scheduling order would pick the addition
// order, and float addition is not associative.
package fastpath

import (
	"context"

	"c/internal/pool"
)

// SharedSum races workers on one float accumulator.
func SharedSum(xs []float64) float64 {
	var total float64
	_ = pool.Run(context.Background(), len(xs), 4, func(i int) error {
		total += xs[i] // want `float accumulation into total shared across pool workers`
		return nil
	})
	return total
}

// StripedShared does the same over contiguous per-worker ranges, with the
// accumulator behind a struct field.
type scratch struct{ loss float64 }

func StripedShared(s *scratch, xs []float64) {
	const workers = 2
	_ = pool.Run(context.Background(), workers, workers, func(w int) error {
		for i := w * len(xs) / workers; i < (w+1)*len(xs)/workers; i++ {
			s.loss += xs[i] // want `float accumulation into s shared across pool workers`
		}
		return nil
	})
}

// PerWorkerSlab is the sanctioned pattern: each worker folds into a
// closure-local accumulator and publishes it to its own slot; the caller
// reduces in a fixed order. Silent.
func PerWorkerSlab(xs []float64) float64 {
	const workers = 2
	partial := make([]float64, workers)
	_ = pool.Run(context.Background(), workers, workers, func(w int) error {
		var local float64
		for i := w * len(xs) / workers; i < (w+1)*len(xs)/workers; i++ {
			local += xs[i]
		}
		partial[w] = local
		return nil
	})
	return partial[0] + partial[1]
}

// CountShared accumulates an integer across workers: racy, but not a
// float-determinism concern (integer addition is associative); this
// analyzer stays silent and leaves data races to the race detector.
func CountShared(xs []float64) int {
	var n int
	_ = pool.Run(context.Background(), len(xs), 4, func(i int) error {
		n += 1
		return nil
	})
	return n
}

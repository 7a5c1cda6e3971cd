// Package baselines implements the three competing memory-size optimization
// approaches the paper discusses (§6), so the evaluation can compare
// Sizeless' "one measured size" against measurement-hungry alternatives:
//
//   - PowerTuning: AWS Lambda Power Tuning [10] — measures every candidate
//     size and picks the best (ground truth at 6× the measurement cost).
//   - COSE [4] — sequential model-based search: fits a parametric
//     performance model and measures only the most informative sizes.
//   - BATCH [5] — profiles a fixed subset of sizes and interpolates the
//     rest with polynomial regression.
//
// All baselines consume a Measurer, which abstracts "run a performance test
// at memory size m" — the expensive operation the paper's approach avoids.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/stats"
)

// Measurer runs a dedicated performance test at one memory size and returns
// the mean execution time in milliseconds.
type Measurer interface {
	Measure(m platform.MemorySize) (float64, error)
}

// TableMeasurer is a Measurer backed by a lookup table — used in tests and
// wherever measurements already exist.
type TableMeasurer map[platform.MemorySize]float64

// Measure implements Measurer.
func (t TableMeasurer) Measure(m platform.MemorySize) (float64, error) {
	v, ok := t[m]
	if !ok {
		return 0, fmt.Errorf("baselines: size %v not in table", m)
	}
	return v, nil
}

var _ Measurer = TableMeasurer(nil)

// Result is a baseline's outcome.
type Result struct {
	// Name identifies the baseline.
	Name string
	// MeasurementsUsed counts the dedicated performance tests consumed.
	MeasurementsUsed int
	// Times holds measured or model-estimated execution times per size.
	Times map[platform.MemorySize]float64
	// Recommendation is the optimizer's selection over Times.
	Recommendation optimizer.Recommendation
}

// PowerTuning measures every size and optimizes directly — the exhaustive
// baseline.
func PowerTuning(m Measurer, sizes []platform.MemorySize, pricing platform.Pricer, tradeoff float64) (Result, error) {
	if len(sizes) == 0 {
		return Result{}, errors.New("baselines: no sizes")
	}
	times := make(map[platform.MemorySize]float64, len(sizes))
	for _, sz := range sizes {
		t, err := m.Measure(sz)
		if err != nil {
			return Result{}, fmt.Errorf("baselines: power tuning: %w", err)
		}
		times[sz] = t
	}
	rec, err := optimizer.Optimize(times, pricing, tradeoff)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:             "power-tuning",
		MeasurementsUsed: len(sizes),
		Times:            times,
		Recommendation:   rec,
	}, nil
}

// coseModel is COSE's parametric performance model: execution time as an
// affine function of inverse CPU share, t(m) = a + b / share(m). The CPU
// share is the resource that scales with memory, so this captures both
// CPU-bound (large b) and network-bound (b ≈ 0) functions.
type coseModel struct {
	a, b float64
	res  *platform.ResourceModel
}

func fitCOSE(points map[platform.MemorySize]float64, res *platform.ResourceModel) (coseModel, error) {
	design := make([][]float64, 0, len(points))
	y := make([]float64, 0, len(points))
	for m, t := range points {
		design = append(design, []float64{1, 1 / res.SingleThreadSpeed(m)})
		y = append(y, t)
	}
	coef, err := stats.LeastSquares(design, y)
	if err != nil {
		return coseModel{}, fmt.Errorf("baselines: cose fit: %w", err)
	}
	return coseModel{a: coef[0], b: coef[1], res: res}, nil
}

func (c coseModel) predict(m platform.MemorySize) float64 {
	t := c.a + c.b/c.res.SingleThreadSpeed(m)
	if t < 1e-3 {
		t = 1e-3
	}
	return t
}

// COSE runs the sequential model-based search with the given measurement
// budget (the paper's point: COSE needs fewer measurements than Power
// Tuning but still several). Budget must be at least 2; the default used in
// the evaluation is 4.
func COSE(m Measurer, sizes []platform.MemorySize, res *platform.ResourceModel, pricing platform.Pricer, tradeoff float64, budget int) (Result, error) {
	if len(sizes) < 2 {
		return Result{}, errors.New("baselines: COSE needs at least two candidate sizes")
	}
	if budget < 2 {
		return Result{}, errors.New("baselines: COSE budget must be ≥ 2")
	}
	if budget > len(sizes) {
		budget = len(sizes)
	}
	ordered := append([]platform.MemorySize(nil), sizes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	// Bootstrap with the extreme sizes — maximally informative for an
	// affine model in inverse share.
	measured := make(map[platform.MemorySize]float64)
	for _, sz := range []platform.MemorySize{ordered[0], ordered[len(ordered)-1]} {
		t, err := m.Measure(sz)
		if err != nil {
			return Result{}, fmt.Errorf("baselines: cose: %w", err)
		}
		measured[sz] = t
	}

	for len(measured) < budget {
		model, err := fitCOSE(measured, res)
		if err != nil {
			return Result{}, err
		}
		// Acquisition: pick the unmeasured size farthest (in inverse-share
		// distance) from any measured size — the point where the model is
		// least constrained.
		var next platform.MemorySize
		bestDist := -1.0
		for _, sz := range ordered {
			if _, ok := measured[sz]; ok {
				continue
			}
			d := math.Inf(1)
			for ms := range measured {
				dist := math.Abs(1/res.SingleThreadSpeed(sz) - 1/res.SingleThreadSpeed(ms))
				d = math.Min(d, dist)
			}
			if d > bestDist {
				bestDist = d
				next = sz
			}
		}
		if next == 0 {
			break
		}
		t, err := m.Measure(next)
		if err != nil {
			return Result{}, fmt.Errorf("baselines: cose: %w", err)
		}
		measured[next] = t
		_ = model // refit next iteration
	}

	model, err := fitCOSE(measured, res)
	if err != nil {
		return Result{}, err
	}
	times := make(map[platform.MemorySize]float64, len(ordered))
	for _, sz := range ordered {
		if t, ok := measured[sz]; ok {
			times[sz] = t
		} else {
			times[sz] = model.predict(sz)
		}
	}
	rec, err := optimizer.Optimize(times, pricing, tradeoff)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:             "cose",
		MeasurementsUsed: len(measured),
		Times:            times,
		Recommendation:   rec,
	}, nil
}

// BATCH profiles a fixed subset of sizes and interpolates the rest with a
// degree-2 polynomial in inverse memory — the profiler+regression scheme of
// the BATCH framework. profileSizes defaults to {smallest, geometric
// middle, largest} when nil.
func BATCH(m Measurer, sizes []platform.MemorySize, pricing platform.Pricer, tradeoff float64, profileSizes []platform.MemorySize) (Result, error) {
	if len(sizes) < 3 {
		return Result{}, errors.New("baselines: BATCH needs at least three candidate sizes")
	}
	ordered := append([]platform.MemorySize(nil), sizes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	if profileSizes == nil {
		profileSizes = []platform.MemorySize{
			ordered[0],
			ordered[len(ordered)/2],
			ordered[len(ordered)-1],
		}
	}
	if len(profileSizes) < 3 {
		return Result{}, errors.New("baselines: BATCH needs ≥ 3 profile sizes for a degree-2 fit")
	}

	xs := make([]float64, 0, len(profileSizes))
	ys := make([]float64, 0, len(profileSizes))
	measured := make(map[platform.MemorySize]float64, len(profileSizes))
	for _, sz := range profileSizes {
		t, err := m.Measure(sz)
		if err != nil {
			return Result{}, fmt.Errorf("baselines: batch: %w", err)
		}
		measured[sz] = t
		xs = append(xs, 1/float64(sz))
		ys = append(ys, t)
	}
	coef, err := stats.PolyFit(xs, ys, 2)
	if err != nil {
		return Result{}, fmt.Errorf("baselines: batch: %w", err)
	}

	times := make(map[platform.MemorySize]float64, len(ordered))
	for _, sz := range ordered {
		if t, ok := measured[sz]; ok {
			times[sz] = t
			continue
		}
		t := stats.PolyEval(coef, 1/float64(sz))
		if t < 1e-3 {
			t = 1e-3
		}
		times[sz] = t
	}
	rec, err := optimizer.Optimize(times, pricing, tradeoff)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:             "batch",
		MeasurementsUsed: len(measured),
		Times:            times,
		Recommendation:   rec,
	}, nil
}

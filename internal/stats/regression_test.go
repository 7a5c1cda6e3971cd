package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 5}
	mse, err := MSE(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 0 + 4) / 3; !almostEqual(mse, want, 1e-12) {
		t.Errorf("MSE = %v, want %v", mse, want)
	}
}

func TestMSEErrors(t *testing.T) {
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("expected empty-input error")
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	truth := []float64{100, 100}
	got, err := MAPE(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("MAPE = %v, want 0.1", got)
	}
	// Zero targets are skipped.
	got, err = MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("MAPE with zero target = %v, want 0.1", got)
	}
	if _, err := MAPE([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("expected error for all-zero targets")
	}
}

func TestR2(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	perfect, err := R2(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(perfect, 1, 1e-12) {
		t.Errorf("perfect R2 = %v, want 1", perfect)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	atMean, err := R2(meanPred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(atMean, 0, 1e-12) {
		t.Errorf("mean-predictor R2 = %v, want 0", atMean)
	}
	if _, err := R2([]float64{1, 2}, []float64{3, 3}); err == nil {
		t.Error("expected error for constant targets")
	}
}

func TestExplainedVariance(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	perfect, err := ExplainedVariance(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(perfect, 1, 1e-12) {
		t.Errorf("perfect ExpVar = %v, want 1", perfect)
	}
	// A constant-offset predictor has zero residual variance, ExpVar = 1
	// even though R2 < 1 — this distinguishes the two metrics.
	offset := []float64{2, 3, 4, 5}
	ev, err := ExplainedVariance(offset, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ev, 1, 1e-12) {
		t.Errorf("offset ExpVar = %v, want 1", ev)
	}
	r2, err := R2(offset, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r2 >= 1 {
		t.Errorf("offset R2 = %v, want < 1", r2)
	}
}

func TestPolyFitExactRecovery(t *testing.T) {
	// y = 2 - 3x + 0.5x²
	coef := []float64{2, -3, 0.5}
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = PolyEval(coef, x)
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if !almostEqual(got[i], coef[i], 1e-8) {
			t.Errorf("coef[%d] = %v, want %v", i, got[i], coef[i])
		}
	}
}

func TestPolyFitDegreeErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("expected error: not enough points")
	}
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("expected error for negative degree")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	m := [][]float64{
		{2, 1},
		{1, 3},
	}
	b := []float64{5, 10}
	x, err := SolveLinear(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
	// Inputs untouched.
	if m[0][0] != 2 || b[0] != 5 {
		t.Error("SolveLinear mutated its inputs")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	m := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveLinear(m, []float64{1, 2}); err == nil {
		t.Error("expected singular-system error")
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 1 + 2x with noise-free overdetermined system.
	design := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{1, 3, 5, 7}
	c, err := LeastSquares(design, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c[0], 1, 1e-9) || !almostEqual(c[1], 2, 1e-9) {
		t.Errorf("coef = %v, want [1 2]", c)
	}
}

// Property: R2 of a prediction never exceeds 1.
func TestR2UpperBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			pred[i] = rng.NormFloat64() * 10
			truth[i] = rng.NormFloat64() * 10
		}
		r2, err := R2(pred, truth)
		if err != nil {
			return true // constant targets — vacuous
		}
		return r2 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PolyEval and PolyFit round-trip for random polynomials.
func TestPolyRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		degree := rng.Intn(4)
		coef := make([]float64, degree+1)
		for i := range coef {
			coef[i] = rng.NormFloat64() * 3
		}
		nPoints := degree + 1 + rng.Intn(10)
		xs := make([]float64, nPoints)
		ys := make([]float64, nPoints)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64() // distinct, increasing
			ys[i] = PolyEval(coef, xs[i])
		}
		got, err := PolyFit(xs, ys, degree)
		if err != nil {
			t.Fatalf("degree %d n %d: %v", degree, nPoints, err)
		}
		for i := range coef {
			if math.Abs(got[i]-coef[i]) > 1e-5*(1+math.Abs(coef[i])) {
				t.Fatalf("trial %d: coef[%d] = %v, want %v", trial, i, got[i], coef[i])
			}
		}
	}
}

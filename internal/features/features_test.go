package features

import (
	"math"
	"strings"
	"testing"

	"sizeless/internal/dataset"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/stats"
)

// toyDataset builds rows whose execution time halves with each size step
// and whose metrics are simple functions of the row index.
func toyDataset(n int) *dataset.Dataset {
	ds := dataset.New(nil)
	for i := 0; i < n; i++ {
		row := dataset.Row{
			FunctionID: "fn" + string(rune('A'+i)),
			Summaries:  make(map[platform.MemorySize]monitoring.Summary),
		}
		exec := float64(1000 * (i + 1))
		for j, m := range ds.Sizes {
			var s monitoring.Summary
			s.N = 100
			s.Mean[monitoring.ExecutionTime] = exec / math.Pow(2, float64(j))
			s.Mean[monitoring.UserCPUTime] = exec / math.Pow(2, float64(j)) * 0.8
			s.Mean[monitoring.HeapUsed] = float64(20 + i)
			s.Mean[monitoring.VolCtxSwitches] = float64(10 * (i + 1))
			s.Std[monitoring.UserCPUTime] = 3
			s.CoV[monitoring.HeapUsed] = 0.05
			row.Summaries[m] = s
		}
		ds.Rows = append(ds.Rows, row)
	}
	return ds
}

func TestMeanFeaturesCoverAllMetrics(t *testing.T) {
	feats := MeanFeatures()
	if len(feats) != monitoring.NumMetrics {
		t.Fatalf("F0 has %d features, want %d", len(feats), monitoring.NumMetrics)
	}
	names := Names(feats)
	for _, n := range names {
		if !strings.HasPrefix(n, "mean_") {
			t.Errorf("unexpected name %q", n)
		}
	}
}

func TestRelativeFeature(t *testing.T) {
	var s monitoring.Summary
	s.Mean[monitoring.ExecutionTime] = 2000 // 2 s
	s.Mean[monitoring.VolCtxSwitches] = 50
	f := RelativeFeature(monitoring.VolCtxSwitches)
	if got := f.Extract(s); got != 25 {
		t.Errorf("rel ctx/s = %v, want 25", got)
	}
	// Zero execution time yields 0, not NaN.
	var zero monitoring.Summary
	if got := f.Extract(zero); got != 0 {
		t.Errorf("zero exec rel feature = %v, want 0", got)
	}
	// Execution time is excluded from relative feature generation.
	rels := RelativeFeatures([]monitoring.MetricID{monitoring.ExecutionTime, monitoring.HeapUsed})
	if len(rels) != 1 || rels[0].Name != "rel_heapUsed" {
		t.Errorf("RelativeFeatures = %v", Names(rels))
	}
}

func TestPaperFinalFeatures(t *testing.T) {
	feats := PaperFinalFeatures()
	if len(feats) != 12 {
		t.Fatalf("final feature set has %d features, want twelve (paper's eleven-analogue + TX rate)", len(feats))
	}
	// All derived from the base metrics (+ execution time).
	base := map[string]bool{"executionTime": true}
	for _, id := range []monitoring.MetricID{
		monitoring.HeapUsed, monitoring.UserCPUTime, monitoring.SystemCPUTime, monitoring.VolCtxSwitches,
		monitoring.FSReads, monitoring.FSWrites, monitoring.BytesReceived, monitoring.BytesTransmitted,
	} {
		base[id.String()] = true
	}
	if len(base) != 9 {
		t.Fatalf("base metric set has %d entries, want 9 (paper's six + fsReads + netTx + executionTime)", len(base))
	}
	for _, f := range feats {
		parts := strings.SplitN(f.Name, "_", 2)
		if len(parts) != 2 || !base[parts[1]] {
			t.Errorf("feature %q not derived from the base metrics", f.Name)
		}
	}
}

func TestMatrixAndTargets(t *testing.T) {
	ds := toyDataset(4)
	feats := []Feature{
		{Name: "mean_executionTime", Extract: func(s monitoring.Summary) float64 {
			return s.Mean[monitoring.ExecutionTime]
		}},
		{Name: "mean_heapUsed", Extract: func(s monitoring.Summary) float64 {
			return s.Mean[monitoring.HeapUsed]
		}},
	}
	x, err := Matrix(ds, platform.Mem256, feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 4 || len(x[0]) != 2 {
		t.Fatalf("matrix shape %dx%d, want 4x2", len(x), len(x[0]))
	}
	if x[0][0] != 500 { // 1000 / 2^1
		t.Errorf("x[0][0] = %v, want 500", x[0][0])
	}

	targets := TargetSizes(ds.Sizes, platform.Mem256)
	if len(targets) != 5 {
		t.Fatalf("targets = %v, want 5 sizes", targets)
	}
	for _, m := range targets {
		if m == platform.Mem256 {
			t.Error("base size must not appear in targets")
		}
	}

	y, err := Targets(ds, platform.Mem256, targets)
	if err != nil {
		t.Fatal(err)
	}
	// exec(128)/exec(256) = 2 for every row in the toy data.
	if y[0][0] != 2 {
		t.Errorf("ratio 128/256 = %v, want 2", y[0][0])
	}
	// exec(3008)/exec(256) = 2^-4.
	if got, want := y[0][4], math.Pow(2, -4); math.Abs(got-want) > 1e-12 {
		t.Errorf("ratio 3008/256 = %v, want %v", got, want)
	}
}

func TestMatrixErrors(t *testing.T) {
	ds := toyDataset(2)
	if _, err := Matrix(ds, platform.Mem256, nil); err == nil {
		t.Error("empty feature set should error")
	}
	if _, err := Matrix(ds, platform.MemorySize(192), MeanFeatures()); err == nil {
		t.Error("missing base size should error")
	}
	if _, err := Targets(ds, platform.MemorySize(192), ds.Sizes); err == nil {
		t.Error("missing base size should error")
	}
}

// leastSquaresEval is a fast evaluator for selection tests: linear
// least-squares MSE per target, averaged.
func leastSquaresEval(x [][]float64, y [][]float64) (float64, error) {
	design := make([][]float64, len(x))
	for i, row := range x {
		design[i] = append([]float64{1}, row...)
	}
	var total float64
	nT := len(y[0])
	for tIdx := 0; tIdx < nT; tIdx++ {
		col := make([]float64, len(y))
		for i := range y {
			col[i] = y[i][tIdx]
		}
		coef, err := stats.LeastSquares(design, col)
		if err != nil {
			// Collinear candidate set — treat as unusable.
			return math.Inf(1), nil
		}
		pred := make([]float64, len(y))
		for i, row := range design {
			var s float64
			for j, c := range coef {
				s += c * row[j]
			}
			pred[i] = s
		}
		mse, err := stats.MSE(pred, col)
		if err != nil {
			return 0, err
		}
		total += mse
	}
	return total / float64(nT), nil
}

func TestForwardSelectFindsInformativeFeature(t *testing.T) {
	// y depends only on feature 1; features 0 and 2 are noise.
	n := 40
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := 0; i < n; i++ {
		f0 := math.Sin(float64(i) * 12.9898)
		f1 := float64(i) / 10
		f2 := math.Cos(float64(i) * 78.233)
		x[i] = []float64{f0, f1, f2}
		y[i] = []float64{3*f1 + 1}
	}
	res, err := ForwardSelect(x, y, 3, 0, leastSquaresEval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != 1 {
		t.Errorf("first selected feature = %d, want 1 (the informative one)", res.Order[0])
	}
	if len(res.Curve) != 3 {
		t.Errorf("curve has %d points, want 3", len(res.Curve))
	}
	if res.Curve[0] > 1e-9 {
		t.Errorf("informative feature should fit almost perfectly, MSE = %v", res.Curve[0])
	}
	if res.BestK < 1 || res.BestK > 3 {
		t.Errorf("BestK = %d out of range", res.BestK)
	}
}

func TestForwardSelectMaxK(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {2, 3, 4}, {3, 5, 6}, {4, 6, 8}}
	y := [][]float64{{1}, {2}, {3}, {4}}
	res, err := ForwardSelect(x, y, 3, 2, leastSquaresEval)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2 {
		t.Errorf("maxK=2 selected %d features", len(res.Order))
	}
}

func TestForwardSelectErrors(t *testing.T) {
	if _, err := ForwardSelect(nil, nil, 3, 0, leastSquaresEval); err == nil {
		t.Error("empty data should error")
	}
	if _, err := ForwardSelect([][]float64{{1}}, [][]float64{{1}}, 0, 0, leastSquaresEval); err == nil {
		t.Error("zero features should error")
	}
}

func TestColumnsAndSubset(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	sub := columns(x, []int{2, 0})
	if sub[0][0] != 3 || sub[0][1] != 1 || sub[1][0] != 6 {
		t.Errorf("columns = %v", sub)
	}
	feats := MeanFeatures()
	picked := Subset(feats, []int{1, 3})
	if picked[0].Name != feats[1].Name || picked[1].Name != feats[3].Name {
		t.Error("Subset picked wrong features")
	}
}

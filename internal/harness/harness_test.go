package harness

import (
	"context"
	"testing"
	"time"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
)

func testOpts() Options {
	return Options{
		Rate:     20,
		Duration: 20 * time.Second,
		Seed:     1,
		Workers:  4,
	}
}

func mixedSpec(name string) *workload.Spec {
	return &workload.Spec{
		Name: name,
		Ops: []workload.Op{
			workload.CPUOp{Label: "calc", WorkMs: 20, Parallelism: 1, TransientAllocMB: 5},
			workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 1, RequestKB: 1, ResponseKB: 8},
		},
		BaseHeapMB: 25,
		CodeMB:     2,
		PayloadKB:  2,
		ResponseKB: 1,
		NoiseCoV:   0.1,
	}
}

func TestMeasureProducesPlausibleSummary(t *testing.T) {
	sum, res, err := measure(testOpts(), mixedSpec("m1"), platform.Mem512, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ~20 rps × 20 s = ~400 invocations.
	if sum.N < 300 || sum.N > 500 {
		t.Errorf("sample count = %d, want ~400", sum.N)
	}
	if res.Invocations != sum.N {
		t.Errorf("deployment served %d but summary has %d", res.Invocations, sum.N)
	}
	if sum.Mean[monitoring.ExecutionTime] <= 0 {
		t.Error("mean execution time should be positive")
	}
	if sum.Mean[monitoring.UserCPUTime] <= 0 {
		t.Error("mean user CPU should be positive")
	}
	if res.ColdStarts == 0 {
		t.Error("a fresh deployment must cold start at least once")
	}
}

func TestMeasureDeterministicAcrossCalls(t *testing.T) {
	a, _, err := measure(testOpts(), mixedSpec("m1"), platform.Mem512, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := measure(testOpts(), mixedSpec("m1"), platform.Mem512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same options must reproduce the summary")
	}
	// Different repetition index → different stream → different sample.
	c, _, err := measure(testOpts(), mixedSpec("m1"), platform.Mem512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different repetitions should differ")
	}
}

func TestMeasureRepeatedAverages(t *testing.T) {
	opts := testOpts()
	opts.Repetitions = 3
	sum, err := measureRepeated(opts, mixedSpec("m1"), platform.Mem512)
	if err != nil {
		t.Fatal(err)
	}
	// N accumulates across reps.
	if sum.N < 900 {
		t.Errorf("repeated N = %d, want ~1200", sum.N)
	}
}

func TestBuildDatasetGridComplete(t *testing.T) {
	opts := testOpts()
	opts.Duration = 10 * time.Second
	specs := []*workload.Spec{mixedSpec("fn-a"), mixedSpec("fn-b")}
	specs[1].Name = "fn-b"
	ds, err := BuildDataset(context.Background(), opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Rows) != 2 {
		t.Fatalf("dataset rows = %d, want 2", len(ds.Rows))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Execution time decreases with memory for this CPU-weighted function.
	t128, _ := ds.Rows[0].ExecTimeMs(platform.Mem128)
	t3008, _ := ds.Rows[0].ExecTimeMs(platform.Mem3008)
	if t3008 >= t128 {
		t.Errorf("expected speedup with memory: %v vs %v", t128, t3008)
	}
}

func TestBuildDatasetDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := testOpts()
	opts.Duration = 5 * time.Second
	specs := []*workload.Spec{mixedSpec("fn-a"), mixedSpec("fn-b"), mixedSpec("fn-c")}
	specs[1].Name = "fn-b"
	specs[2].Name = "fn-c"

	opts.Workers = 1
	ds1, err := BuildDataset(context.Background(), opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	ds8, err := BuildDataset(context.Background(), opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds1.Rows {
		for _, m := range ds1.Sizes {
			if ds1.Rows[i].Summaries[m] != ds8.Rows[i].Summaries[m] {
				t.Fatalf("worker count changed results for row %d size %v", i, m)
			}
		}
	}
}

func TestBuildDatasetEmptyInput(t *testing.T) {
	if _, err := BuildDataset(context.Background(), testOpts(), nil); err == nil {
		t.Error("empty spec list should error")
	}
}

func TestTraceRetainsInvocations(t *testing.T) {
	opts := testOpts()
	opts.Duration = 10 * time.Second
	invs, err := Trace(opts, mixedSpec("t1"), platform.Mem256)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) < 150 {
		t.Fatalf("trace has %d invocations, want ~200", len(invs))
	}
	if err := monitoring.ValidateWindow(invs); err != nil {
		t.Fatalf("simulated trace fails ingest validation: %v", err)
	}
	// Invocations are recorded in arrival order; start times may locally
	// reorder because cold starts delay the handler past later arrivals,
	// but every start must fall within the experiment window (+ slack for
	// init delays).
	for _, inv := range invs {
		if inv.Start < 0 || inv.Start > opts.Duration+5*time.Second {
			t.Fatalf("invocation start %v outside experiment window", inv.Start)
		}
	}
}

func TestAnalyzeStability(t *testing.T) {
	opts := testOpts()
	opts.Rate = 30
	opts.Duration = 30 * time.Second
	invs, err := Trace(opts, mixedSpec("s1"), platform.Mem256)
	if err != nil {
		t.Fatal(err)
	}
	sOpts := StabilityOptions{
		Prefixes: []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second},
		Full:     30 * time.Second,
		Alpha:    0.05,
	}
	res, err := AnalyzeStability(invs, sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != monitoring.NumMetrics {
		t.Fatalf("stability rows = %d, want %d", len(res), monitoring.NumMetrics)
	}
	for _, ms := range res {
		// The full window vs itself must always be stable with |delta|≈0.
		last := len(sOpts.Prefixes) - 1
		if !ms.Stable[last] {
			t.Errorf("metric %v unstable against itself", ms.Metric)
		}
		if d := ms.Delta[last]; d > 0.01 || d < -0.01 {
			t.Errorf("metric %v self-delta = %v, want ~0", ms.Metric, d)
		}
	}
}

func TestAnalyzeStabilityEmpty(t *testing.T) {
	if _, err := AnalyzeStability(nil, DefaultStabilityOptions()); err == nil {
		t.Error("empty trace should error")
	}
}

func TestUnstableCounts(t *testing.T) {
	perFn := [][]MetricStability{
		{{Metric: monitoring.HeapUsed, Stable: []bool{false, true}}},
		{{Metric: monitoring.HeapUsed, Stable: []bool{false, false}}},
	}
	counts := UnstableCounts(perFn, 2)
	row := counts[monitoring.HeapUsed]
	if row[0] != 2 || row[1] != 1 {
		t.Errorf("counts = %v, want [2 1]", row)
	}
}

func TestDefaultStabilityOptions(t *testing.T) {
	opts := DefaultStabilityOptions()
	if len(opts.Prefixes) != 15 || opts.Full != 15*time.Minute {
		t.Errorf("unexpected defaults: %+v", opts)
	}
}

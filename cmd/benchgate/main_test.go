package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testTrajectory = `{
  "gates": [
    {"name": "train-epoch", "baseline": "BenchmarkTrainEpochSeed",
     "candidate": "BenchmarkTrainEpoch", "min_alloc_reduction": 10}
  ],
  "trajectory": [
    {"pr": 4, "results": {
      "BenchmarkTrainEpochSeed": {"ns_per_op": 80000000, "allocs_per_op": 10000},
      "BenchmarkTrainEpoch": {"ns_per_op": 40000000, "allocs_per_op": 10}
    }}
  ]
}`

const healthyBench = `goos: linux
BenchmarkTrainEpoch-1     	      10	  41000000 ns/op	  225742 B/op	       9 allocs/op
BenchmarkTrainEpochSeed-1 	      10	  85000000 ns/op	16498432 B/op	   10495 allocs/op
PASS
`

// regressedBench is only 1.2x over the seed — far below the 2.0x recorded.
const regressedBench = `BenchmarkTrainEpoch 	      10	  70000000 ns/op	  225742 B/op	       9 allocs/op
BenchmarkTrainEpochSeed 	      10	  84000000 ns/op	16498432 B/op	   10495 allocs/op
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGatePasses(t *testing.T) {
	traj := writeTemp(t, "traj.json", testTrajectory)
	bench := writeTemp(t, "bench.txt", healthyBench)
	var out strings.Builder
	if err := run([]string{"-check", traj + ":" + bench}, &out); err != nil {
		t.Fatalf("healthy run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "train-epoch") || !strings.Contains(out.String(), "ok") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

func TestGateFailsOnThroughputRegression(t *testing.T) {
	traj := writeTemp(t, "traj.json", testTrajectory)
	bench := writeTemp(t, "bench.txt", regressedBench)
	var out strings.Builder
	err := run([]string{"-slack", "0.2", "-check", traj + ":" + bench}, &out)
	if err == nil {
		t.Fatalf("regressed run should fail:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "gate(s) failed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	traj := writeTemp(t, "traj.json", testTrajectory)
	// Fast enough, but the candidate allocates nearly as much as the seed.
	bench := writeTemp(t, "bench.txt",
		"BenchmarkTrainEpoch 	10	40000000 ns/op	1000 B/op	9000 allocs/op\n"+
			"BenchmarkTrainEpochSeed 	10	85000000 ns/op	2000 B/op	10000 allocs/op\n")
	var out strings.Builder
	if err := run([]string{"-check", traj + ":" + bench}, &out); err == nil {
		t.Fatalf("alloc regression should fail:\n%s", out.String())
	}
}

func TestGateErrorsOnMissingBenchmark(t *testing.T) {
	traj := writeTemp(t, "traj.json", testTrajectory)
	bench := writeTemp(t, "bench.txt", "BenchmarkSomethingElse 	10	100 ns/op\n")
	if err := run([]string{"-check", traj + ":" + bench}, &strings.Builder{}); err == nil {
		t.Fatal("missing benchmark should error")
	}
}

func TestParseBenchOutputStripsCPUSuffix(t *testing.T) {
	res, err := parseBenchOutput(strings.NewReader(healthyBench))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res["BenchmarkTrainEpoch"]
	if !ok {
		t.Fatalf("suffix not stripped: %v", res)
	}
	if got.NsPerOp != 41000000 || got.AllocsPerOp != 9 {
		t.Errorf("parsed %+v", got)
	}
}

// Two runs appended to one output file (`tee -a`) repeat benchmark names;
// the parser keeps the LAST occurrence of each. Pin that last-wins
// behavior.
func TestParseBenchOutputLastWins(t *testing.T) {
	appended := "BenchmarkTrainEpoch-4 	10	40000000 ns/op	100 B/op	8 allocs/op\n" +
		"BenchmarkTrainEpochSeed-4 	10	85000000 ns/op	200 B/op	9000 allocs/op\n" +
		"PASS\n" +
		"BenchmarkTrainEpoch-4 	10	42000000 ns/op	100 B/op	8 allocs/op\n" +
		"BenchmarkFineTuneEpochs-4 	10	26000000 ns/op	110 B/op	8 allocs/op\n" +
		"PASS\n"
	res, err := parseBenchOutput(strings.NewReader(appended))
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkTrainEpoch"].NsPerOp; got != 42000000 {
		t.Errorf("repeated name should keep the last occurrence, got %v ns/op", got)
	}
	if got := res["BenchmarkFineTuneEpochs"].NsPerOp; got != 26000000 {
		t.Errorf("second run's benchmark missing or wrong: %v ns/op", got)
	}
	if got := res["BenchmarkTrainEpochSeed"].NsPerOp; got != 85000000 {
		t.Errorf("first run's seed result should survive: %v ns/op", got)
	}
}

func TestBadFlagsAndFiles(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("no -check pairs should error")
	}
	if err := run([]string{"-check", "nocolon"}, &strings.Builder{}); err == nil {
		t.Error("malformed -check should error")
	}
	if err := run([]string{"-slack", "1.5", "-check", "a:b"}, &strings.Builder{}); err == nil {
		t.Error("out-of-range slack should error")
	}
}

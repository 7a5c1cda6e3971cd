package apps

import (
	"context"
	"testing"
	"time"

	"sizeless/internal/dag"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

func TestPaperFunctionCounts(t *testing.T) {
	counts := map[string]int{
		"airline-booking":    8,
		"facial-recognition": 5,
		"event-processing":   7,
		"hello-retail":       7,
	}
	all := All()
	if len(all) != 4 {
		t.Fatalf("have %d apps, want 4", len(all))
	}
	var total int
	for _, app := range all {
		total += len(app.Functions)
		want, ok := counts[app.Name]
		if !ok {
			t.Errorf("unexpected app %q", app.Name)
			continue
		}
		if len(app.Functions) != want {
			t.Errorf("%s has %d functions, paper has %d", app.Name, len(app.Functions), want)
		}
	}
	if got := total; got != 27 {
		t.Errorf("total functions = %d, paper evaluates 27", got)
	}
}

func TestAllSpecsValidAndExecutable(t *testing.T) {
	env := runtime.NewEnv()
	rng := xrand.New(77)
	for _, app := range All() {
		for _, spec := range app.Functions {
			spec := spec
			t.Run(app.Name+"/"+spec.Name, func(t *testing.T) {
				if err := spec.Validate(); err != nil {
					t.Fatalf("invalid spec: %v", err)
				}
				inst, err := runtime.NewInstance(env, spec, platform.Mem256, rng.Derive(app.Name+spec.Name))
				if err != nil {
					t.Fatal(err)
				}
				d, _, err := inst.Invoke()
				if err != nil {
					t.Fatal(err)
				}
				if d <= 0 || d > 30*time.Second {
					t.Errorf("implausible duration %v", d)
				}
			})
		}
	}
}

func TestFunctionNamesUniqueAcrossApps(t *testing.T) {
	seen := make(map[string]string)
	for _, app := range All() {
		for _, spec := range app.Functions {
			name := spec.Name
			if other, dup := seen[name]; dup {
				t.Errorf("function %q appears in both %s and %s", name, other, app.Name)
			}
			seen[name] = app.Name
		}
	}
}

func TestPerAppSpecsValidateAndNamesUnique(t *testing.T) {
	// The planner keys functions by name, so a duplicate name inside one
	// app would shadow a function; every spec must also pass workload validation on its own (not just
	// survive instantiation).
	for _, app := range All() {
		seen := make(map[string]bool, len(app.Functions))
		for _, spec := range app.Functions {
			if err := spec.Validate(); err != nil {
				t.Errorf("%s/%s: invalid spec: %v", app.Name, spec.Name, err)
			}
			if seen[spec.Name] {
				t.Errorf("%s: duplicate function name %q", app.Name, spec.Name)
			}
			seen[spec.Name] = true
		}
	}
}

func TestAppGraphsValidate(t *testing.T) {
	// Every app's edge metadata must reference known functions and form an
	// acyclic graph; Graph is the planner's entry point, so a bad edge
	// would only surface deep inside an experiment otherwise.
	for _, app := range All() {
		if len(app.Edges) == 0 {
			t.Errorf("%s has no DAG edges", app.Name)
			continue
		}
		times := make(map[string]map[platform.MemorySize]float64, len(app.Functions))
		for _, spec := range app.Functions {
			times[spec.Name] = map[platform.MemorySize]float64{platform.Mem256: 10}
		}
		g, err := app.Graph(times)
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		pl, err := dag.PerFunction(context.Background(), g, dag.Config{
			Platform: platform.DefaultConfig(),
			Sizes:    []platform.MemorySize{platform.Mem256},
		})
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		if got := len(pl.Groups); got != len(app.Functions) {
			t.Errorf("%s graph plans %d functions, app has %d", app.Name, got, len(app.Functions))
		}
	}

	// Missing times for a function must be rejected.
	app := FacialRecognition()
	if _, err := app.Graph(map[string]map[platform.MemorySize]float64{}); err == nil {
		t.Error("Graph with no times succeeded")
	}
}

func TestCaseStudyServicesBeyondTrainingSegments(t *testing.T) {
	// The paper stresses that the case studies use services the training
	// segments never touch (Rekognition, Aurora, SQS, Step Functions,
	// Kinesis). The training segments only use DynamoDB and S3.
	trainingServices := map[services.Kind]bool{
		services.DynamoDB: true,
		services.S3:       true,
	}
	novel := make(map[services.Kind]bool)
	for _, app := range All() {
		for _, spec := range app.Functions {
			for _, k := range spec.Services() {
				if !trainingServices[k] {
					novel[k] = true
				}
			}
		}
	}
	for _, want := range []services.Kind{
		services.Rekognition, services.Aurora, services.SQS,
		services.StepFunctions, services.Kinesis, services.ExternalAPI, services.SNS,
	} {
		if !novel[want] {
			t.Errorf("case studies should exercise %v (absent from training segments)", want)
		}
	}
}

func TestDriftIncreasesWithMeasurementGap(t *testing.T) {
	airline := AirlineBooking()
	retail := HelloRetail()
	if airline.Drift >= retail.Drift {
		t.Errorf("hello-retail (9 months) should drift more than airline (2 months): %v vs %v",
			retail.Drift, airline.Drift)
	}
	for _, app := range All() {
		if app.Drift < 1 {
			t.Errorf("%s drift %v < 1", app.Name, app.Drift)
		}
		if app.Rate <= 0 || app.Duration <= 0 {
			t.Errorf("%s missing workload parameters", app.Name)
		}
		if app.MeasuredAfter == "" {
			t.Errorf("%s missing measurement-gap documentation", app.Name)
		}
	}
}

func TestWorkloadMixDiversity(t *testing.T) {
	// Within each app, execution profiles must differ (the paper's Fig. 6
	// shows per-function scaling diversity). Compare CPU work spread.
	for _, app := range All() {
		min, max := 1e18, 0.0
		for _, spec := range app.Functions {
			w := cpuWorkMs(spec)
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		if max < 2*min {
			t.Errorf("%s CPU work range [%v, %v] too uniform", app.Name, min, max)
		}
	}
}

// cpuWorkMs sums a spec's declared CPU work (client-side service CPU
// excluded).
func cpuWorkMs(spec *workload.Spec) float64 {
	var total float64
	for _, op := range spec.Ops {
		if cpu, ok := op.(workload.CPUOp); ok {
			total += cpu.WorkMs
		}
	}
	return total
}

package fngen

import (
	"strings"
	"testing"

	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/segments"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

func TestGenerateUniqueFunctions(t *testing.T) {
	g := New(xrand.New(1), Options{})
	fns, err := g.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 200 {
		t.Fatalf("generated %d functions, want 200", len(fns))
	}
	hashes := make(map[string]bool)
	names := make(map[string]bool)
	for _, fn := range fns {
		if hashes[fn.Hash()] {
			t.Errorf("duplicate function hash %s", fn.Hash())
		}
		hashes[fn.Hash()] = true
		if names[fn.Name] {
			t.Errorf("duplicate function name %s", fn.Name)
		}
		names[fn.Name] = true
		if err := fn.Validate(); err != nil {
			t.Errorf("function %s invalid: %v", fn.Name, err)
		}
		n := len(fn.SegmentNames)
		if n < 1 || n > 4 {
			t.Errorf("function %s has %d segments, want 1..4", fn.Name, n)
		}
	}
	if len(g.seen) != 200 {
		t.Errorf("generator has seen %d functions, want 200", len(g.seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := New(xrand.New(42), Options{}).Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(xrand.New(42), Options{}).Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestGeneratedFunctionsExecutable(t *testing.T) {
	g := New(xrand.New(7), Options{})
	fns, err := g.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	env := runtime.NewEnv()
	rng := xrand.New(99)
	for _, fn := range fns {
		inst, err := runtime.NewInstance(env, fn, platform.Mem1024, rng.Derive(fn.Name))
		if err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		if _, _, err := inst.Invoke(); err != nil {
			t.Fatalf("%s failed to execute: %v", fn.Name, err)
		}
	}
}

func TestGeneratedProfilesVary(t *testing.T) {
	// The dataset must cover varied resource-consumption profiles: some
	// functions call services, some don't; CPU work spans a wide range.
	g := New(xrand.New(5), Options{})
	fns, err := g.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	withServices, cpuOnly := 0, 0
	minCPU, maxCPU := 1e18, 0.0
	for _, fn := range fns {
		if len(fn.Services()) > 0 {
			withServices++
		} else {
			cpuOnly++
		}
		w := cpuWorkMs(fn)
		if w < minCPU {
			minCPU = w
		}
		if w > maxCPU {
			maxCPU = w
		}
	}
	if withServices == 0 || cpuOnly == 0 {
		t.Errorf("profile mix degenerate: %d with services, %d without", withServices, cpuOnly)
	}
	if maxCPU < 10*minCPU {
		t.Errorf("CPU work range too narrow: [%v, %v]", minCPU, maxCPU)
	}
}

func TestSegmentCountBounds(t *testing.T) {
	g := New(xrand.New(3), Options{MinSegments: 2, MaxSegments: 3})
	fns, err := g.Generate(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range fns {
		n := len(fn.SegmentNames)
		if n < 2 || n > 3 {
			t.Errorf("function %s has %d segments, want 2..3", fn.Name, n)
		}
	}
}

func TestDuplicateHashesSkipped(t *testing.T) {
	// Two generators with the same seed draw the same first candidate.
	// Pre-seeding the second generator's ledger with the first generator's
	// hash must force it to skip that candidate and emit a different one.
	g1 := New(xrand.New(11), Options{})
	f1, err := g1.GenerateOne()
	if err != nil {
		t.Fatal(err)
	}
	g2 := New(xrand.New(11), Options{})
	g2.seen[f1.Hash()] = true
	f2, err := g2.GenerateOne()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Hash() == f1.Hash() {
		t.Error("generator emitted a hash already in its ledger")
	}
}

func TestExhaustionGuard(t *testing.T) {
	// A catalog with a constant Build cannot exhaust the generator because
	// payload/noise scalars still vary — but the guard must exist, so check
	// many generations over a minimal catalog remain unique and error-free.
	constant := []segments.Segment{{
		Name:        "const",
		Description: "constant",
		Build: func(*xrand.Stream) segments.Fragment {
			return segments.Fragment{Ops: []workload.Op{workload.SleepOp{Ms: 1}}}
		},
	}}
	g := New(xrand.New(1), Options{MinSegments: 1, MaxSegments: 1, Catalog: constant})
	fns, err := g.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]bool)
	for _, fn := range fns {
		if hashes[fn.Hash()] {
			t.Fatal("duplicate hash emitted")
		}
		hashes[fn.Hash()] = true
	}
}

func TestSAMTemplate(t *testing.T) {
	g := New(xrand.New(1), Options{})
	fn, err := g.GenerateOne()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := SAMTemplate(fn, 512)
	for _, want := range []string{
		"AWS::Serverless::Function",
		"MemorySize: 512",
		"Runtime: nodejs12.x",
		"monitored-lambda.handler",
		fn.Hash(),
	} {
		if !strings.Contains(tmpl, want) {
			t.Errorf("template missing %q:\n%s", want, tmpl)
		}
	}
}

func TestSetupTeardownScripts(t *testing.T) {
	fn := &workload.Spec{
		Name: "svc-fn",
		Ops: []workload.Op{
			workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 1},
			workload.ServiceOp{Service: services.S3, Op: "GetObject", Calls: 1},
		},
		NoiseCoV: 0.1,
	}
	setup := SetupScript(fn)
	if !strings.Contains(setup, "dynamodb create-table") || !strings.Contains(setup, "s3 mb") {
		t.Errorf("setup script missing service stanzas:\n%s", setup)
	}
	teardown := TeardownScript(fn)
	if !strings.Contains(teardown, "dynamodb delete-table") || !strings.Contains(teardown, "s3 rb") {
		t.Errorf("teardown script missing service stanzas:\n%s", teardown)
	}
	if !strings.HasPrefix(setup, "#!/bin/sh") {
		t.Error("scripts should start with a shebang")
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

package segments

import (
	"testing"

	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

func TestCatalogHasSixteenSegments(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d segments, paper §3.1 implements sixteen", len(cat))
	}
	seen := make(map[string]bool)
	for _, s := range cat {
		if s.Name == "" || s.Description == "" {
			t.Errorf("segment %q lacks name or description", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate segment name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Build == nil {
			t.Errorf("segment %q has no Build", s.Name)
		}
	}
}

func TestEverySegmentBuildsValidExecutableOps(t *testing.T) {
	rng := xrand.New(1).Derive("segtest")
	env := runtime.NewEnv()
	for _, seg := range Catalog() {
		seg := seg
		t.Run(seg.Name, func(t *testing.T) {
			frag := seg.Build(rng.Derive(seg.Name))
			if len(frag.Ops) == 0 {
				t.Fatal("segment built no ops")
			}
			spec := &workload.Spec{
				Name:       "test-" + seg.Name,
				Ops:        frag.Ops,
				BaseHeapMB: 15 + frag.HeapMB,
				CodeMB:     1.5 + frag.CodeMB,
				NoiseCoV:   0.1,
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("segment produced invalid spec: %v", err)
			}
			inst, err := runtime.NewInstance(env, spec, platform.Mem512, rng.Derive("inst-"+seg.Name))
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := inst.Invoke()
			if err != nil {
				t.Fatalf("segment failed to execute: %v", err)
			}
			if d <= 0 {
				t.Error("execution took no time")
			}
		})
	}
}

func TestSegmentsDeclareTheirServices(t *testing.T) {
	rng := xrand.New(2).Derive("svccheck")
	for _, seg := range Catalog() {
		frag := seg.Build(rng.Derive(seg.Name))
		spec := &workload.Spec{Name: "x", Ops: frag.Ops, NoiseCoV: 0.1}
		used := spec.Services()
		declared := make(map[string]bool)
		for _, k := range seg.Services {
			declared[k.String()] = true
		}
		for _, k := range used {
			if !declared[k.String()] {
				t.Errorf("segment %q uses %v but does not declare it", seg.Name, k)
			}
		}
	}
}

func TestSegmentParameterVariability(t *testing.T) {
	// Two builds with different streams must produce different parameters —
	// otherwise the generator could not create 2000 distinct functions.
	var seg Segment
	for _, s := range Catalog() {
		if s.Name == "primeNumbers" {
			seg = s
		}
	}
	if seg.Build == nil {
		t.Fatal("primeNumbers not in the catalog")
	}
	a := seg.Build(xrand.New(1).Derive("a"))
	b := seg.Build(xrand.New(1).Derive("b"))
	wa := a.Ops[0].(workload.CPUOp).WorkMs
	wb := b.Ops[0].(workload.CPUOp).WorkMs
	if wa == wb {
		t.Error("independent builds drew identical parameters")
	}
	// Same stream name → identical build (determinism).
	c := seg.Build(xrand.New(1).Derive("a"))
	if wc := c.Ops[0].(workload.CPUOp).WorkMs; wc != wa {
		t.Error("same stream should reproduce the same parameters")
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d segments, want 16", len(cat))
	}
	seen := make(map[string]bool, len(cat))
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate segment name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

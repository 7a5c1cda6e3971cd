package dag_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"sizeless/internal/apps"
	"sizeless/internal/experiments"
	"sizeless/internal/harness"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/workload"
)

// fuseSpecs composes member workload specs (in invocation order) into the
// spec of the fused deployable unit, named "A+B+…" after its members:
// segments and ops run back to back in one instance, the code bundle and
// resident heap are the sums of the members', the request payload is the
// head's and the response the tail's, and noise is the largest member's.
// It is the spec a measurement campaign deploys to check a fusion decision
// against the simulator.
func fuseSpecs(members ...*workload.Spec) *workload.Spec {
	if len(members) == 0 {
		return nil
	}
	fused := &workload.Spec{}
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
		fused.SegmentNames = append(fused.SegmentNames, m.SegmentNames...)
		fused.Ops = append(fused.Ops, m.Ops...)
		fused.BaseHeapMB += m.BaseHeapMB
		fused.CodeMB += m.CodeMB
		if m.NoiseCoV > fused.NoiseCoV {
			fused.NoiseCoV = m.NoiseCoV
		}
		if i == 0 {
			fused.PayloadKB = m.PayloadKB
		}
		if i == len(members)-1 {
			fused.ResponseKB = m.ResponseKB
		}
	}
	fused.Name = strings.Join(names, "+")
	return fused
}

func TestFuseSpecs(t *testing.T) {
	mk := func(name string, heapMB, payloadKB, responseKB, noise float64) *workload.Spec {
		return &workload.Spec{
			Name:       name,
			Ops:        []workload.Op{workload.CPUOp{Label: "w", WorkMs: 5, Parallelism: 1}},
			BaseHeapMB: heapMB,
			CodeMB:     2,
			PayloadKB:  payloadKB,
			ResponseKB: responseKB,
			NoiseCoV:   noise,
		}
	}
	a, b := mk("A", 20, 3, 5, 0.1), mk("B", 30, 7, 9, 0.4)
	fused := fuseSpecs(a, b)
	if fused.Name != "A+B" {
		t.Errorf("fused name = %q", fused.Name)
	}
	if fused.BaseHeapMB != 50 || fused.CodeMB != 4 {
		t.Errorf("fused footprint = heap %v code %v, want 50/4", fused.BaseHeapMB, fused.CodeMB)
	}
	if fused.PayloadKB != 3 || fused.ResponseKB != 9 {
		t.Errorf("fused payload/response = %v/%v, want head's 3 / tail's 9", fused.PayloadKB, fused.ResponseKB)
	}
	if fused.NoiseCoV != 0.4 {
		t.Errorf("fused noise = %v, want max 0.4", fused.NoiseCoV)
	}
	if len(fused.Ops) != len(a.Ops)+len(b.Ops) {
		t.Errorf("fused ops = %d, want %d", len(fused.Ops), len(a.Ops)+len(b.Ops))
	}
	if err := fused.Validate(); err != nil {
		t.Errorf("fused spec invalid: %v", err)
	}
	if fuseSpecs() != nil {
		t.Error("fuseSpecs with no members should be nil")
	}
}

// TestFusedUnitTimesMatchSimulator holds the planner's fused-unit time
// model to the simulator: every fused unit the app matrix plans (4 apps ×
// 3 providers, small scale) is deployed as its composed spec and measured
// at its planned size with the app matrix's own measurement options. The
// planned ExecTimeMs must be within 10% of the measured mean.
func TestFusedUnitTimesMatchSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every app on three providers")
	}
	ctx := context.Background()
	providers := []platform.Provider{platform.AWSLambda(), platform.GCPCloudFunctions(), platform.AzureFunctions()}
	lab := experiments.NewLab(experiments.SmallScale())
	res, err := experiments.AppMatrix(ctx, lab, providers...)
	if err != nil {
		t.Fatal(err)
	}
	scale := lab.Scale
	units := 0
	for _, p := range providers {
		for _, app := range apps.All() {
			byName := make(map[string]*workload.Spec, len(app.Functions))
			for _, s := range app.Functions {
				byName[s.Name] = s
			}
			for _, g := range res.Cell(app.Name, p.Name()).Plans.Fused.Groups {
				if len(g.Functions) < 2 {
					continue
				}
				members := make([]*workload.Spec, len(g.Functions))
				for i, fn := range g.Functions {
					members[i] = byName[fn]
				}
				env := runtime.NewEnvFor(p.Platform())
				env.Drift = app.Drift
				ds, err := harness.BuildDataset(ctx, harness.Options{
					Env:      env,
					Rate:     scale.CaseRate,
					Duration: scale.CaseDuration,
					Sizes:    []platform.MemorySize{g.Memory},
					Seed:     scale.Seed + 7,
					Workers:  scale.Workers,
				}, []*workload.Spec{fuseSpecs(members...)})
				if err != nil {
					t.Fatal(err)
				}
				measured := ds.Rows[0].ExecTimes()[g.Memory]
				rel := (g.ExecTimeMs - measured) / measured
				t.Logf("%s %s %s @%v: planned %.2f ms, measured %.2f ms (%+.1f%%)",
					p.Name(), app.Name, strings.Join(g.Functions, "+"), g.Memory, g.ExecTimeMs, measured, rel*100)
				if !(math.Abs(rel) <= 0.10) {
					t.Errorf("%s %s %s @%v: planned %.2f ms is %+.1f%% off the measured %.2f ms",
						p.Name(), app.Name, strings.Join(g.Functions, "+"), g.Memory, g.ExecTimeMs, rel*100, measured)
				}
				units++
			}
		}
	}
	// The fused plans of airline-booking and hello-retail deploy fused
	// units on every provider; a plan with none would leave the model
	// unchecked.
	if units < len(providers)*2 {
		t.Errorf("checked %d fused units, want at least %d", units, len(providers)*2)
	}
}

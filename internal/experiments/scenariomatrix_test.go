package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sizeless/internal/fleetsynth"
)

// detectionWindowBound is the detection-latency bound the scenario lab
// asserts: an injected distribution shift must be detected within this
// many windows of landing (1 = the shift window itself). The shift scales
// every tested metric by scenarioShiftScale, so the first full post-shift
// window already separates cleanly under the default
// Mann-Whitney/Cliff's-delta thresholds; the bound leaves one window of
// slack for baseline-boundary effects.
const detectionWindowBound = 2

// The drift regression tests below run the full scenario traffic through
// the default-config detector without a lab (no dataset, no training), so
// they stay in the -short / -race CI budget.

func scenarioByName(t *testing.T, name string) scenario {
	t.Helper()
	table, err := scenarioTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range table {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("scenario %q not in table", name)
	return scenario{}
}

// TestDriftWalkDiurnalNoFalsePositives pins the false-positive bound:
// pure diurnal rate modulation alone must never fire the detector — the
// arrival rate breathes but the metric distribution is unchanged, and a
// recommender that recomputes on traffic shape alone would thrash.
func TestDriftWalkDiurnalNoFalsePositives(t *testing.T) {
	for _, name := range []string{"diurnal", "stationary", "spiky", "trace-replay"} {
		t.Run(name, func(t *testing.T) {
			windows, _, err := scenarioWindows(scenarioByName(t, name), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := driftWalk(windows, -1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluated == 0 {
				t.Fatal("detector never evaluated a window")
			}
			if res.FalsePositives != 0 {
				t.Errorf("%d false positives over %d evaluated windows (fires at %v), want 0",
					res.FalsePositives, res.Evaluated, res.Fires)
			}
		})
	}
}

// TestDriftWalkDetectsShiftUnderSpikyTraffic pins the detection-latency
// bound: a ×3 metric shift injected mid-spike must be caught within
// detectionWindowBound windows, with no false positives before it.
func TestDriftWalkDetectsShiftUnderSpikyTraffic(t *testing.T) {
	sc := scenarioByName(t, "spiky-shift")
	windows, _, err := scenarioWindows(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driftWalk(windows, sc.shiftWindow)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("%d false positives before the shift (fires at %v), want 0", res.FalsePositives, res.Fires)
	}
	if res.DetectedWindow < 0 {
		t.Fatalf("injected shift at window %d never detected (fires: %v)", sc.shiftWindow, res.Fires)
	}
	if res.Latency < 1 || res.Latency > detectionWindowBound {
		t.Errorf("detection latency %d windows (detected at w%d), want within [1, %d]",
			res.Latency, res.DetectedWindow, detectionWindowBound)
	}
}

// TestScenarioWindowsDeterministic locks in bit-identical scenario traffic
// for identical seeds across every scenario in the table.
func TestScenarioWindowsDeterministic(t *testing.T) {
	table, err := scenarioTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range table {
		a, schedA, err := scenarioWindows(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, schedB, err := scenarioWindows(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(schedA) != len(schedB) || len(a) != len(b) {
			t.Fatalf("%s: identical seeds disagree on shape", sc.name)
		}
		for w := range a {
			if len(a[w]) != len(b[w]) {
				t.Fatalf("%s: window %d sizes differ", sc.name, w)
			}
			for i := range a[w] {
				if a[w][i] != b[w][i] {
					t.Fatalf("%s: window %d invocation %d differs", sc.name, w, i)
				}
			}
		}
	}
}

// TestScenarioColdStartsLoadDependent pins the warm-pool model's headline
// property at the scenario scale: sparse traffic pays cold starts on idle
// gaps, steady moderate traffic stays warm.
func TestScenarioColdStartsLoadDependent(t *testing.T) {
	coldFrac := func(name string) float64 {
		windows, sched, err := scenarioWindows(scenarioByName(t, name), 1)
		if err != nil {
			t.Fatal(err)
		}
		colds := 0
		for _, invs := range windows {
			colds += fleetsynth.ColdStarts(invs)
		}
		if len(sched) == 0 {
			t.Fatalf("%s: no arrivals", name)
		}
		return float64(colds) / float64(len(sched))
	}
	sparse, stationary := coldFrac("sparse"), coldFrac("stationary")
	if sparse < 0.05 {
		t.Errorf("sparse cold fraction %.3f, want ≥ 0.05 (idle-gap cold starts)", sparse)
	}
	// Steady 20 rps still pays occasional concurrency cold starts
	// (~3 invocations in flight), but the warm pool absorbs the bulk.
	if stationary > 0.03 {
		t.Errorf("stationary cold fraction %.3f, want ≤ 0.03 (warm pool holds)", stationary)
	}
	if sparse < 5*stationary {
		t.Errorf("sparse cold fraction %.3f not ≫ stationary %.3f", sparse, stationary)
	}
}

// TestScenarioRealizedRates cross-checks every scenario's realized arrival
// count against its profile's integrated rate (4σ Poisson tolerance).
func TestScenarioRealizedRates(t *testing.T) {
	table, err := scenarioTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range table {
		_, sched, err := scenarioWindows(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := sc.profile.Integral(0, scenarioHorizon)
		if got := float64(len(sched)); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("%s: %v arrivals, want %.0f ± %.0f", sc.name, got, want, 4*math.Sqrt(want))
		}
	}
}

// TestScenarioMatrix is the lab acceptance test: the full experiment under
// a trained model, asserting the false-positive bound, the detection
// latency bound, byte-identical renders for identical seeds, and sane cost
// accounting.
func TestScenarioMatrix(t *testing.T) {
	lab := sharedLab(t)
	ctx := context.Background()
	res, err := ScenarioMatrix(ctx, lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 6 {
		t.Fatalf("have %d scenarios, want 6", len(res.Scenarios))
	}
	byName := make(map[string]ScenarioOutcome, len(res.Scenarios))
	for _, s := range res.Scenarios {
		byName[s.Name] = s
	}

	// (a) Zero drift false positives under pure diurnal load at the
	// default detector config.
	diurnal := byName["diurnal"]
	if diurnal.Drift.Evaluated == 0 {
		t.Fatal("diurnal: detector never evaluated")
	}
	if diurnal.Drift.FalsePositives != 0 {
		t.Errorf("diurnal: %d false positives, want 0", diurnal.Drift.FalsePositives)
	}

	// (b) Injected shift under spiky traffic detected within the
	// documented window bound.
	shift := byName["spiky-shift"]
	if shift.Drift.DetectedWindow < 0 {
		t.Fatal("spiky-shift: injected shift not detected")
	}
	if shift.Drift.Latency < 1 || shift.Drift.Latency > detectionWindowBound {
		t.Errorf("spiky-shift: detection latency %d, want within [1, %d]", shift.Drift.Latency, detectionWindowBound)
	}
	if shift.Drift.FalsePositives != 0 {
		t.Errorf("spiky-shift: %d false positives before the shift", shift.Drift.FalsePositives)
	}
	if len(shift.Drift.Fires) < 1 {
		t.Error("spiky-shift: detector policy never recomputed")
	}

	// Regret accounting: the detector policy can never do worse than the
	// frozen policy on the shifted scenario, and regrets are non-negative.
	for _, s := range res.Scenarios {
		if s.StaleRegret < 0 || s.DetectorRegret < 0 {
			t.Errorf("%s: negative regret (stale %v, detector %v)", s.Name, s.StaleRegret, s.DetectorRegret)
		}
	}
	if shift.DetectorRegret > shift.StaleRegret+1e-12 {
		t.Errorf("spiky-shift: detector regret %v exceeds stale regret %v", shift.DetectorRegret, shift.StaleRegret)
	}

	// Cold-start load dependence feeds provider cost scoring: the sparse
	// scenario's cold overhead must dominate the stationary one on every
	// provider.
	sparse, stationary := byName["sparse"], byName["stationary"]
	for _, p := range res.Providers {
		if sparse.ColdOverhead[p] <= stationary.ColdOverhead[p] {
			t.Errorf("%s: sparse cold overhead %.4f not above stationary %.4f",
				p, sparse.ColdOverhead[p], stationary.ColdOverhead[p])
		}
	}

	// (c) Identical seeds reproduce the full scenario table byte-for-byte.
	again, err := ScenarioMatrix(ctx, lab)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := res.Render(), again.Render()
	if r1 != r2 {
		t.Error("identical seeds rendered different scenario tables")
	}
	for _, want := range []string{"stationary", "diurnal", "spiky-shift", "trace-replay", "cold frac", "stale regret"} {
		if !strings.Contains(r1, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestDriftWalkSparseSkipsSmallWindows pins the window-size guard: the
// sparse scenario's windows are below the detector's 20-sample floor, so
// the walk must skip rather than error.
func TestDriftWalkSparseSkipsSmallWindows(t *testing.T) {
	windows, _, err := scenarioWindows(scenarioByName(t, "sparse"), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driftWalk(windows, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("sparse: %d false positives, want 0", res.FalsePositives)
	}
	if res.Skipped == 0 {
		t.Error("sparse: expected sub-20-sample windows to be skipped")
	}
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sizeless/internal/core"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// Scenario-lab geometry. The horizon is compressed — diurnal periods of
// minutes instead of hours, a 5-second keep-alive instead of AWS's ~10
// minutes — so the cold-start dynamics of hours of traffic fit in a test
// run while keeping the ratios (period ≫ window ≫ keep-alive ≫ mean gap)
// that make cold starts load-dependent.
const (
	// scenarioHorizon is the virtual-time extent of every scenario.
	scenarioHorizon = 10 * time.Minute
	// scenarioWindow is the monitoring-window length (20 windows/run).
	scenarioWindow = 30 * time.Second
	// scenarioKeepAlive is the accelerated warm-pool reclamation window.
	scenarioKeepAlive = 5 * time.Second
	// scenarioBaselineMin is how many invocations the drift walk
	// accumulates before preparing a baseline.
	scenarioBaselineMin = 100
	// scenarioShiftScale multiplies every synthetic metric after the
	// injected shift — ×3 is far past the detector's small-effect floor.
	scenarioShiftScale = 3.0
	// scenarioShiftWindow is the window index at which the spiky-shift
	// scenario's distribution shift lands (t = 6 min, inside a spike).
	scenarioShiftWindow = 12
	// scenarioQuorum is how many metrics must shift in one window before
	// the walk treats the window as drifted. The detector config itself
	// stays at defaults (α = 0.01, |δ| ≥ 0.147, 7 metrics); the quorum is
	// the walk's decision rule. With 7 metrics tested at α = 0.01, a
	// fire-on-any rule would false-positive on ~7% of stationary windows
	// by construction — a real shift moves every correlated resource
	// metric at once, so requiring ≥ 2 keeps single-metric rank-test
	// noise from triggering recomputation.
	scenarioQuorum = 2
)

// scenarioTraceText is the embedded recorded-trace scenario: a bursty,
// idle-heavy rate trace (requests per second) with step changes, the
// traffic family where cost surprises concentrate.
const scenarioTraceText = `# bursty idle-heavy fleet trace (offset_seconds rate_rps)
0 4
60 25
120 2
180 0.5
240 40
270 6
360 90
375 8
480 0.2
540 30
`

// scenario is one row of the matrix: a workload shape plus the window
// index of an injected metric-distribution shift (-1 for none).
type scenario struct {
	name        string
	profile     loadgen.Profile
	shiftWindow int
}

// scenarioTable builds the scenario matrix: stationary control, pure
// diurnal modulation, spiky superposition, spiky with an injected shift,
// cold-start-heavy sparse traffic, and recorded-trace replay.
func scenarioTable() ([]scenario, error) {
	trace, err := loadgen.ParseTrace(strings.NewReader(scenarioTraceText))
	if err != nil {
		return nil, fmt.Errorf("experiments: parsing embedded scenario trace: %w", err)
	}
	spiky := loadgen.Superpose(
		loadgen.ConstantProfile{RPS: 8},
		loadgen.SpikeProfile{Start: 2 * time.Minute, Duration: 20 * time.Second, Magnitude: 120},
		loadgen.SpikeProfile{Start: 6 * time.Minute, Duration: 15 * time.Second, Magnitude: 200},
	)
	return []scenario{
		{name: "stationary", profile: loadgen.ConstantProfile{RPS: 20}, shiftWindow: -1},
		{name: "diurnal", profile: loadgen.DiurnalProfile{Base: 20, Amplitude: 16, Period: 5 * time.Minute}, shiftWindow: -1},
		{name: "spiky", profile: spiky, shiftWindow: -1},
		{name: "spiky-shift", profile: spiky, shiftWindow: scenarioShiftWindow},
		{name: "sparse", profile: loadgen.ScaleProfile(loadgen.ConstantProfile{RPS: 4}, 0.1), shiftWindow: -1},
		{name: "trace-replay", profile: trace, shiftWindow: -1},
	}, nil
}

// scenarioWindows samples a scenario's arrival schedule and streams it into
// per-window invocation batches, injecting the metric shift (if any) from
// the scenario's shift window onward. Identical seeds yield bit-identical
// windows.
func scenarioWindows(sc scenario, seed int64) ([][]monitoring.Invocation, loadgen.Schedule, error) {
	rng := xrand.New(seed).Derive("scenario/" + sc.name)
	sched, err := loadgen.Sample(sc.profile, scenarioHorizon, rng.Derive("arrivals"))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: sampling %s: %w", sc.name, err)
	}
	cfg := fleetsynth.StreamConfig{
		Horizon:   scenarioHorizon,
		Window:    scenarioWindow,
		KeepAlive: scenarioKeepAlive,
	}
	if sc.shiftWindow >= 0 {
		shift := sc.shiftWindow
		cfg.ScaleAt = func(w int) float64 {
			if w >= shift {
				return scenarioShiftScale
			}
			return 1
		}
	}
	windows, err := fleetsynth.Stream(rng.Derive("metrics"), sched, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: streaming %s: %w", sc.name, err)
	}
	return windows, sched, nil
}

// driftWalkResult is the drift detector's trajectory over one scenario.
type driftWalkResult struct {
	// Evaluated counts windows tested against a prepared baseline;
	// Skipped counts windows too small to test (< 20 samples).
	Evaluated, Skipped int
	// Fires lists window indices where >= scenarioQuorum metrics shifted.
	Fires []int
	// FalsePositives counts fires with no injected shift in effect.
	FalsePositives int
	// DetectedWindow is the first fire at or after the shift window
	// (-1 when not detected or no shift was injected). Latency is
	// DetectedWindow − shiftWindow + 1 (1 = detected in the shift window
	// itself; -1 when not applicable).
	DetectedWindow, Latency int
}

// driftWalk runs the default-config drift detector over a window sequence:
// accumulate scenarioBaselineMin invocations of baseline, then test each
// subsequent window, firing on a >= scenarioQuorum metric quorum and
// re-baselining from the firing window (the recommender's "recompute and
// adopt the new behaviour" move). shiftWindow is where an injected shift
// lands, or -1; fires before it (or any fire when none was injected) count
// as false positives.
func driftWalk(windows [][]monitoring.Invocation, shiftWindow int) (driftWalkResult, error) {
	res := driftWalkResult{DetectedWindow: -1, Latency: -1}
	var cfg monitoring.DriftDetectorConfig // defaults throughout

	var accum []monitoring.Invocation
	var baseline *monitoring.PreparedBaseline
	for w, invs := range windows {
		if baseline == nil {
			accum = append(accum, invs...)
			if len(accum) >= scenarioBaselineMin {
				baseline = monitoring.PrepareBaseline(accum, cfg)
				accum = nil
			}
			continue
		}
		if len(invs) < 20 {
			res.Skipped++
			continue
		}
		report, err := monitoring.DetectDriftAgainst(baseline, invs, cfg)
		if err != nil {
			return res, fmt.Errorf("experiments: drift walk window %d: %w", w, err)
		}
		res.Evaluated++
		if len(report.Shifted) < scenarioQuorum {
			continue
		}
		res.Fires = append(res.Fires, w)
		if shiftWindow < 0 || w < shiftWindow {
			res.FalsePositives++
		} else if res.DetectedWindow < 0 {
			res.DetectedWindow = w
			res.Latency = w - shiftWindow + 1
		}
		// Re-baseline on the new behaviour starting from this window.
		baseline = nil
		accum = append(accum, invs...)
		if len(accum) >= scenarioBaselineMin {
			baseline = monitoring.PrepareBaseline(accum, cfg)
			accum = nil
		}
	}
	return res, nil
}

// ScenarioOutcome is one scenario's row in the matrix.
type ScenarioOutcome struct {
	Name string
	// Arrivals is the realized arrival count; ExpectedArrivals is the
	// profile's integrated rate over the horizon.
	Arrivals         int
	ExpectedArrivals float64
	// MeanRate is the horizon-average arrival rate (RateOver).
	MeanRate float64
	// ColdStarts and ColdFrac come from the keep-alive warm-pool model:
	// load-dependent, not a fixed ratio.
	ColdStarts int
	ColdFrac   float64
	// Drift is the detector trajectory.
	Drift driftWalkResult
	// StaleRegret and DetectorRegret are mean per-window excess S_total
	// (the §3.5 objective) of the frozen-once and recompute-on-drift
	// policies versus recomputing every window; AlwaysRegret is 0 by
	// construction. CostWindows is how many windows were scored.
	StaleRegret, DetectorRegret float64
	CostWindows                 int
	// ColdOverhead maps provider name → cold-start billing overhead: the
	// fraction of the scenario's total bill (at the provider's ~256 MB
	// size) that pays for cold-start delay rather than execution.
	ColdOverhead map[string]float64
}

// ScenarioMatrixResult is the scenario-matrix experiment output.
type ScenarioMatrixResult struct {
	Horizon, Window, KeepAlive time.Duration
	// Base is the model's base memory size.
	Base platform.MemorySize
	// Providers lists the provider names in ColdOverhead column order.
	Providers []string
	Scenarios []ScenarioOutcome
}

// ScenarioMatrix runs the non-stationary scenario lab (benchreport id
// "scenario-matrix"): six traffic shapes — stationary, diurnal, spiky,
// spiky with an injected metric shift, cold-start-heavy sparse, and
// recorded-trace replay — each sampled as a non-homogeneous Poisson
// process, streamed through the keep-alive warm-pool model into
// monitoring windows, and scored on drift-detector behaviour (false
// positives, detection latency), recomputation-policy cost regret, and
// per-provider cold-start billing overhead. Everything derives from the
// lab seed, so identical seeds reproduce the table byte-for-byte.
func ScenarioMatrix(ctx context.Context, l *Lab) (*ScenarioMatrixResult, error) {
	base := platform.Nearest(platform.Mem256, l.Sizes())
	model, err := l.Model(ctx, base)
	if err != nil {
		return nil, err
	}
	table, err := scenarioTable()
	if err != nil {
		return nil, err
	}
	providers := []platform.Provider{
		platform.AWSLambda(), platform.GCPCloudFunctions(), platform.AzureFunctions(),
	}
	res := &ScenarioMatrixResult{
		Horizon: scenarioHorizon, Window: scenarioWindow, KeepAlive: scenarioKeepAlive,
		Base: base,
	}
	for _, p := range providers {
		res.Providers = append(res.Providers, p.Name())
	}

	for _, sc := range table {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: scenario matrix cancelled: %w", err)
		}
		windows, sched, err := scenarioWindows(sc, l.Scale.Seed)
		if err != nil {
			return nil, err
		}
		out := ScenarioOutcome{
			Name:             sc.name,
			Arrivals:         len(sched),
			ExpectedArrivals: sc.profile.Integral(0, scenarioHorizon),
			MeanRate:         sched.RateOver(scenarioHorizon),
		}
		var meanExecMs float64
		for _, invs := range windows {
			out.ColdStarts += fleetsynth.ColdStarts(invs)
			for _, inv := range invs {
				meanExecMs += inv.Metrics[monitoring.ExecutionTime]
			}
		}
		if out.Arrivals > 0 {
			out.ColdFrac = float64(out.ColdStarts) / float64(out.Arrivals)
			meanExecMs /= float64(out.Arrivals)
		}

		out.Drift, err = driftWalk(windows, sc.shiftWindow)
		if err != nil {
			return nil, err
		}
		if err := scoreCostRegret(model, l.Pricing(), windows, out.Drift.Fires, &out); err != nil {
			return nil, err
		}
		out.ColdOverhead = coldOverhead(providers, out.ColdStarts, out.Arrivals, meanExecMs)
		res.Scenarios = append(res.Scenarios, out)
	}
	return res, nil
}

// scoreCostRegret walks the windows once and scores three recomputation
// policies on the optimizer's own S_total objective: "stale" freezes the
// first recommendation, "detector" recomputes at drift fires, "always"
// recomputes every window (the reference, regret 0 by construction).
// Regret is the mean per-window S_total excess over the always policy.
func scoreCostRegret(model *core.Model, pricing platform.Pricer, windows [][]monitoring.Invocation, fires []int, out *ScenarioOutcome) error {
	fired := make(map[int]bool, len(fires))
	for _, w := range fires {
		fired[w] = true
	}
	var staleSize, detSize platform.MemorySize
	haveRec := false
	var staleSum, detSum float64
	for w, invs := range windows {
		if len(invs) < 20 {
			continue
		}
		sum, err := monitoring.Summarize(invs)
		if err != nil {
			return fmt.Errorf("experiments: summarizing scenario window %d: %w", w, err)
		}
		times, err := model.Predict(sum)
		if err != nil {
			return fmt.Errorf("experiments: predicting scenario window %d: %w", w, err)
		}
		rec, err := optimizer.Optimize(times, pricing, 0.75)
		if err != nil {
			return fmt.Errorf("experiments: optimizing scenario window %d: %w", w, err)
		}
		if !haveRec {
			staleSize, detSize = rec.Best, rec.Best
			haveRec = true
			continue
		}
		if fired[w] {
			detSize = rec.Best
		}
		best := sTotalOf(rec, rec.Best)
		staleSum += sTotalOf(rec, staleSize) - best
		detSum += sTotalOf(rec, detSize) - best
		out.CostWindows++
	}
	if out.CostWindows > 0 {
		out.StaleRegret = staleSum / float64(out.CostWindows)
		out.DetectorRegret = detSum / float64(out.CostWindows)
	}
	return nil
}

// sTotalOf looks up the S_total score of a memory size in a
// recommendation. The optimizer scores the full grid, so the size is
// always present; a miss returns +1 (one full objective unit of regret)
// rather than panicking.
func sTotalOf(rec optimizer.Recommendation, m platform.MemorySize) float64 {
	for _, o := range rec.Options {
		if o.Memory == m {
			return o.STotal
		}
	}
	return sTotalOf(rec, rec.Best) + 1
}

// coldOverhead computes, per provider, the fraction of the scenario's
// total bill at the provider's ~256 MB size that pays for cold-start
// delay: colds·cost(coldDelay) / (colds·cost(coldDelay) + n·cost(exec)).
func coldOverhead(providers []platform.Provider, colds, n int, meanExecMs float64) map[string]float64 {
	out := make(map[string]float64, len(providers))
	for _, p := range providers {
		cfg := p.Platform()
		m := platform.Nearest(platform.Mem256, p.DefaultSizes())
		coldCost := float64(colds) * cfg.Pricing.Cost(m, cfg.ColdStartDelay(m))
		execCost := float64(n) * cfg.Pricing.Cost(m, time.Duration(meanExecMs*float64(time.Millisecond)))
		if coldCost+execCost > 0 {
			out[p.Name()] = coldCost / (coldCost + execCost)
		} else {
			out[p.Name()] = 0
		}
	}
	return out
}

// Render prints the scenario matrix. The output contains no wall-clock
// values, so identical seeds render byte-identical tables.
func (r *ScenarioMatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Temporal workload scenario matrix — %v horizon, %v windows, %v keep-alive, base %v\n\n",
		r.Horizon, r.Window, r.KeepAlive, r.Base)

	t := newTable("scenario", "arrivals", "expected", "rate", "cold", "cold frac")
	for _, s := range r.Scenarios {
		t.addRow(s.Name,
			fmt.Sprintf("%d", s.Arrivals),
			fmt.Sprintf("%.0f", s.ExpectedArrivals),
			fmt.Sprintf("%.2f/s", s.MeanRate),
			fmt.Sprintf("%d", s.ColdStarts),
			pct(s.ColdFrac))
	}
	b.WriteString(t.String())

	b.WriteString("\nDrift detector (default config, quorum ")
	fmt.Fprintf(&b, "%d) and recomputation-policy regret:\n", scenarioQuorum)
	d := newTable("scenario", "eval", "skip", "FP", "detected", "latency", "stale regret", "detector regret")
	for _, s := range r.Scenarios {
		detected, latency := "-", "-"
		if s.Drift.DetectedWindow >= 0 {
			detected = fmt.Sprintf("w%d", s.Drift.DetectedWindow)
			latency = fmt.Sprintf("%d", s.Drift.Latency)
		}
		d.addRow(s.Name,
			fmt.Sprintf("%d", s.Drift.Evaluated),
			fmt.Sprintf("%d", s.Drift.Skipped),
			fmt.Sprintf("%d", s.Drift.FalsePositives),
			detected, latency,
			fmt.Sprintf("%.4f", s.StaleRegret),
			fmt.Sprintf("%.4f", s.DetectorRegret))
	}
	b.WriteString(d.String())

	b.WriteString("\nCold-start billing overhead at ~256 MB (fraction of total bill):\n")
	c := newTable(append([]string{"scenario"}, r.Providers...)...)
	for _, s := range r.Scenarios {
		row := []string{s.Name}
		for _, p := range r.Providers {
			row = append(row, pct(s.ColdOverhead[p]))
		}
		c.addRow(row...)
	}
	b.WriteString(c.String())
	return b.String()
}

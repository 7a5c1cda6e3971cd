package monitoring

import (
	"errors"
	"fmt"
	"sort"

	"sizeless/internal/stats"
)

// DriftReport describes how a function's behaviour shifted between two
// observation windows. Paper §5 notes that workload shifts (burstier
// traffic, larger payloads) change the resource-consumption metrics, and
// that the model can simply be re-applied to the new monitoring data; this
// detector decides *when* that re-application is warranted.
type DriftReport struct {
	// Shifted lists metrics whose distribution changed significantly
	// (Mann-Whitney U rejects same-distribution) with a non-negligible
	// effect size (|Cliff's delta| ≥ threshold).
	Shifted []MetricShift
	// Checked is the number of metrics tested.
	Checked int
}

// MetricShift is one significantly shifted metric.
type MetricShift struct {
	Metric MetricID
	// Delta is Cliff's delta between the new and old windows: positive
	// means the metric increased.
	Delta float64
	// P is the Mann-Whitney two-sided p-value.
	P float64
}

// Drifted reports whether any metric shifted.
func (r DriftReport) Drifted() bool { return len(r.Shifted) > 0 }

// DriftDetectorConfig tunes the detector.
type DriftDetectorConfig struct {
	// Alpha is the Mann-Whitney significance level (default 0.01 — the
	// detector sees many samples, so it can afford to be strict).
	Alpha float64
	// MinDelta is the minimum |Cliff's delta| to count as a shift
	// (default 0.147, the "small effect" threshold) — statistically
	// significant but negligible changes are ignored, exactly as the
	// paper treats the one-minute stability differences (§3.3).
	MinDelta float64
	// Metrics restricts the test to these metrics (default: the six
	// base metrics the model consumes, plus execution time).
	Metrics []MetricID
}

func (c DriftDetectorConfig) withDefaults() DriftDetectorConfig {
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.MinDelta <= 0 {
		c.MinDelta = 0.147
	}
	if c.Metrics == nil {
		c.Metrics = []MetricID{
			ExecutionTime, UserCPUTime, SystemCPUTime,
			VolCtxSwitches, FSWrites, BytesReceived, HeapUsed,
		}
	}
	return c
}

// MinDriftSamples is the fewest samples either drift window may hold: below
// it the normal-approximation U test is not trustworthy.
const MinDriftSamples = 20

// ErrWindowTooSmall is returned when either window has fewer than
// MinDriftSamples samples.
var ErrWindowTooSmall = fmt.Errorf("monitoring: drift windows need at least %d samples each", MinDriftSamples)

// PreparedBaseline caches a baseline window's per-metric sorted samples so
// a fleet-wide drift sweep stops re-sorting the unchanged baseline on
// every pass: both rank tests (Mann-Whitney U and Cliff's delta) consume
// the sorted series directly. A PreparedBaseline is immutable with respect
// to its baseline but carries reusable gather/sort scratch for the new
// window, so it must not be used from multiple goroutines at once (the
// recommender holds it under the function's shard lock).
type PreparedBaseline struct {
	n       int
	metrics []MetricID
	sorted  [][]float64
	scratch []float64
}

// PrepareBaseline extracts and sorts the baseline's samples for every
// metric the detector configuration tests.
func PrepareBaseline(oldWindow []Invocation, cfg DriftDetectorConfig) *PreparedBaseline {
	cfg = cfg.withDefaults()
	p := &PreparedBaseline{
		n:       len(oldWindow),
		metrics: cfg.Metrics,
		sorted:  make([][]float64, len(cfg.Metrics)),
	}
	for i, id := range cfg.Metrics {
		s := MetricSamples(oldWindow, id)
		sort.Float64s(s)
		p.sorted[i] = s
	}
	return p
}

// DetectDriftAgainst compares a new observation window of a function with
// a prepared baseline window of the same function at the same memory size
// and reports which model-relevant metrics shifted. A drifted report means
// the memory-size recommendation should be recomputed from the new
// window's summary. Only the new window is gathered and sorted (into
// scratch reused across calls); the baseline's cached ranks are consumed
// directly by both tests. The
// metric set is the one captured at PrepareBaseline time; cfg supplies the
// thresholds.
func DetectDriftAgainst(baseline *PreparedBaseline, newWindow []Invocation, cfg DriftDetectorConfig) (DriftReport, error) {
	if baseline == nil {
		return DriftReport{}, errors.New("monitoring: nil prepared baseline")
	}
	cfg = cfg.withDefaults()
	if baseline.n < MinDriftSamples || len(newWindow) < MinDriftSamples {
		return DriftReport{}, ErrWindowTooSmall
	}
	if cap(baseline.scratch) < len(newWindow) {
		baseline.scratch = make([]float64, len(newWindow))
	}
	newS := baseline.scratch[:len(newWindow)]
	report := DriftReport{Checked: len(baseline.metrics)}
	for i, id := range baseline.metrics {
		for j := range newWindow {
			newS[j] = newWindow[j].Metrics[id]
		}
		sort.Float64s(newS)
		oldS := baseline.sorted[i]
		res, err := stats.MannWhitneyUPresorted(newS, oldS)
		if err != nil {
			return DriftReport{}, err
		}
		if res.P >= cfg.Alpha {
			continue
		}
		delta, err := stats.CliffsDeltaPresorted(newS, oldS)
		if err != nil {
			return DriftReport{}, err
		}
		if delta < cfg.MinDelta && delta > -cfg.MinDelta {
			continue
		}
		report.Shifted = append(report.Shifted, MetricShift{Metric: id, Delta: delta, P: res.P})
	}
	return report, nil
}

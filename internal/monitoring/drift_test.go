package monitoring

import (
	"errors"
	"testing"

	"sizeless/internal/xrand"
)

// detectDrift is the one-shot form of the detector: it prepares the old
// window as a baseline and tests the new window against it.
func detectDrift(oldWindow, newWindow []Invocation, cfg DriftDetectorConfig) (DriftReport, error) {
	cfg = cfg.withDefaults()
	if len(oldWindow) < MinDriftSamples || len(newWindow) < MinDriftSamples {
		return DriftReport{}, ErrWindowTooSmall
	}
	return DetectDriftAgainst(PrepareBaseline(oldWindow, cfg), newWindow, cfg)
}

// window synthesizes invocations whose execution time and bytes-received
// follow the given means.
func window(n int, execMean, bytesMean float64, seed int64) []Invocation {
	rng := xrand.New(seed).Derive("drift")
	out := make([]Invocation, n)
	for i := range out {
		out[i].Metrics[ExecutionTime] = rng.LogNormal(execMean, 0.2)
		out[i].Metrics[BytesReceived] = rng.LogNormal(bytesMean, 0.2)
		out[i].Metrics[UserCPUTime] = rng.LogNormal(execMean*0.3, 0.2)
		out[i].Metrics[HeapUsed] = rng.LogNormal(30, 0.05)
	}
	return out
}

func TestDetectDriftNoChange(t *testing.T) {
	oldW := window(300, 100, 5000, 1)
	newW := window(300, 100, 5000, 2)
	report, err := detectDrift(oldW, newW, DriftDetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Drifted() {
		t.Errorf("identical distributions flagged as drift: %+v", report.Shifted)
	}
	if report.Checked != 7 {
		t.Errorf("checked %d metrics, want 7 defaults", report.Checked)
	}
}

func TestDetectDriftPayloadGrowth(t *testing.T) {
	// The §5 scenario: payload size increases, execution gets longer.
	oldW := window(300, 100, 5000, 1)
	newW := window(300, 160, 20000, 2)
	report, err := detectDrift(oldW, newW, DriftDetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Drifted() {
		t.Fatal("payload growth not detected")
	}
	found := map[MetricID]float64{}
	for _, s := range report.Shifted {
		found[s.Metric] = s.Delta
	}
	if d, ok := found[ExecutionTime]; !ok || d <= 0 {
		t.Errorf("execution-time increase not flagged: %+v", report.Shifted)
	}
	if d, ok := found[BytesReceived]; !ok || d <= 0 {
		t.Errorf("bytes-received increase not flagged: %+v", report.Shifted)
	}
	// Heap stayed put.
	if _, ok := found[HeapUsed]; ok {
		t.Error("unchanged heap flagged as drifted")
	}
}

func TestDetectDriftDirection(t *testing.T) {
	// Execution time decreasing (negative delta).
	oldW := window(300, 160, 5000, 1)
	newW := window(300, 100, 5000, 2)
	report, err := detectDrift(oldW, newW, DriftDetectorConfig{Metrics: []MetricID{ExecutionTime}})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Drifted() || report.Shifted[0].Delta >= 0 {
		t.Errorf("decrease should yield negative delta: %+v", report.Shifted)
	}
}

func TestDetectDriftSmallWindows(t *testing.T) {
	oldW := window(10, 100, 5000, 1)
	newW := window(300, 100, 5000, 2)
	if _, err := detectDrift(oldW, newW, DriftDetectorConfig{}); !errors.Is(err, ErrWindowTooSmall) {
		t.Errorf("small window error = %v, want ErrWindowTooSmall", err)
	}
}

func TestDetectDriftNegligibleEffectIgnored(t *testing.T) {
	// A statistically detectable but tiny shift (large n, small effect)
	// must be suppressed by the Cliff's-delta floor.
	oldW := window(2000, 100.0, 5000, 1)
	newW := window(2000, 101.5, 5000, 2)
	report, err := detectDrift(oldW, newW, DriftDetectorConfig{Metrics: []MetricID{ExecutionTime}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Drifted() {
		t.Errorf("negligible shift flagged: %+v", report.Shifted)
	}
}

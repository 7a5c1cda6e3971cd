package fleetsynth

import (
	"testing"
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

func streamTotals(t *testing.T, windows [][]monitoring.Invocation) (invs, colds int) {
	t.Helper()
	for _, w := range windows {
		invs += len(w)
		colds += ColdStarts(w)
	}
	return invs, colds
}

func TestStreamPartitionsByWindow(t *testing.T) {
	rng := xrand.New(1).Derive("stream")
	sched, err := loadgen.Poisson(20, time.Minute, rng.Derive("arrivals"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Horizon: time.Minute, Window: 10 * time.Second, KeepAlive: 5 * time.Second}
	windows, err := Stream(rng.Derive("metrics"), sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 6 {
		t.Fatalf("got %d windows, want 6", len(windows))
	}
	total := 0
	for w, invs := range windows {
		lo, hi := time.Duration(w)*cfg.Window, time.Duration(w+1)*cfg.Window
		for _, inv := range invs {
			if inv.Start < lo || inv.Start >= hi {
				t.Fatalf("window %d holds arrival at %v outside [%v, %v)", w, inv.Start, lo, hi)
			}
			if inv.Duration <= 0 {
				t.Fatalf("invocation at %v has non-positive duration %v", inv.Start, inv.Duration)
			}
		}
		total += len(invs)
	}
	if total != len(sched) {
		t.Fatalf("streamed %d invocations, schedule has %d arrivals", total, len(sched))
	}
}

func TestStreamDeterministic(t *testing.T) {
	sched, err := loadgen.Poisson(15, time.Minute, xrand.New(3).Derive("arrivals"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Horizon: time.Minute, Window: 5 * time.Second, KeepAlive: 2 * time.Second}
	a, err := Stream(xrand.New(3).Derive("metrics"), sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(xrand.New(3).Derive("metrics"), sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("window counts differ")
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("window %d sizes differ", w)
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("window %d invocation %d differs between identical runs", w, i)
			}
		}
	}
}

func TestStreamColdStartsLoadDependent(t *testing.T) {
	// Sparse traffic (gaps far beyond keep-alive) pays a cold start on
	// every arrival; dense steady traffic pays almost none.
	sparse, err := loadgen.Constant(0.05, 5*time.Minute) // one arrival per 20s
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Horizon: 5 * time.Minute, Window: 30 * time.Second, KeepAlive: 5 * time.Second}
	windows, err := Stream(xrand.New(1).Derive("sparse"), sparse, cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, colds := streamTotals(t, windows)
	if invs == 0 || colds != invs {
		t.Fatalf("sparse traffic: %d/%d cold, want all cold", colds, invs)
	}

	dense, err := loadgen.Constant(20, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	windows, err = Stream(xrand.New(1).Derive("dense"), dense, cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, colds = streamTotals(t, windows)
	if invs == 0 {
		t.Fatal("dense traffic produced no invocations")
	}
	if frac := float64(colds) / float64(invs); frac > 0.05 {
		t.Fatalf("dense traffic cold fraction %.3f, want < 0.05", frac)
	}
}

func TestStreamBurstColdStarts(t *testing.T) {
	// A burst of simultaneous arrivals cannot share instances: every
	// arrival in the burst is a concurrency cold start.
	sched := loadgen.Burst(25, nil)
	cfg := StreamConfig{Horizon: time.Minute, Window: time.Minute, KeepAlive: 10 * time.Second}
	windows, err := Stream(xrand.New(1).Derive("burst"), sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, colds := streamTotals(t, windows)
	if invs != 25 || colds != 25 {
		t.Fatalf("burst: %d/%d cold, want 25/25", colds, invs)
	}
}

func TestStreamNoKeepAliveSingleCold(t *testing.T) {
	// Without reclamation, spaced sequential traffic warms one instance
	// once and reuses it forever.
	sched, err := loadgen.Constant(1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := Stream(xrand.New(1).Derive("warm"), sched,
		StreamConfig{Horizon: time.Minute, Window: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	invs, colds := streamTotals(t, windows)
	if invs != len(sched) || colds != 1 {
		t.Fatalf("no keep-alive: %d/%d cold, want 1/%d", colds, invs, len(sched))
	}
}

// TestStreamNoKeepAliveBurstStillCold pins the documented boundary of the
// "never reclaimed" mode: disabling reclamation only removes idle-gap cold
// starts. Overlapping arrivals still grow the pool — every arrival in a
// simultaneous burst finds no idle instance and starts cold — so KeepAlive
// <= 0 does NOT mean "only the first arrival is cold" except on a serial
// schedule (the case TestStreamNoKeepAliveSingleCold covers).
func TestStreamNoKeepAliveBurstStillCold(t *testing.T) {
	sched := loadgen.Burst(16, nil)
	windows, err := Stream(xrand.New(1).Derive("nokeepalive-burst"), sched,
		StreamConfig{Horizon: time.Minute, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	invs, colds := streamTotals(t, windows)
	if invs != 16 || colds != 16 {
		t.Fatalf("unreaped pool, simultaneous burst: %d/%d cold, want 16/16", colds, invs)
	}

	// A second identical burst reuses the grown pool: with reclamation off,
	// the sixteen instances are all still warm, so zero new cold starts.
	second := make(loadgen.Schedule, 16)
	for i := range second {
		second[i] = 30 * time.Second
	}
	windows, err = Stream(xrand.New(1).Derive("nokeepalive-two-bursts"),
		append(loadgen.Burst(16, nil), second...),
		StreamConfig{Horizon: time.Minute, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	invs, colds = streamTotals(t, windows)
	if invs != 32 || colds != 16 {
		t.Fatalf("second burst on warm pool: %d/%d cold, want 16/32", colds, invs)
	}
}

func TestStreamScaleAtShiftsMetrics(t *testing.T) {
	sched, err := loadgen.Constant(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	shiftAt := 3
	cfg := StreamConfig{
		Horizon: time.Minute, Window: 10 * time.Second, KeepAlive: 5 * time.Second,
		ScaleAt: func(w int) float64 {
			if w >= shiftAt {
				return 3
			}
			return 1
		},
	}
	windows, err := Stream(xrand.New(1).Derive("shift"), sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meanExec := func(invs []monitoring.Invocation) float64 {
		var sum float64
		for _, inv := range invs {
			sum += inv.Metrics[monitoring.ExecutionTime]
		}
		return sum / float64(len(invs))
	}
	before, after := meanExec(windows[shiftAt-1]), meanExec(windows[shiftAt])
	if after < 2*before {
		t.Fatalf("shifted window mean %v not ≫ pre-shift mean %v", after, before)
	}
}

func TestStreamErrors(t *testing.T) {
	sched := loadgen.Schedule{0}
	if _, err := Stream(nil, sched, StreamConfig{Horizon: time.Minute, Window: time.Second}); err == nil {
		t.Error("nil rng accepted")
	}
	rng := xrand.New(1)
	if _, err := Stream(rng, sched, StreamConfig{Horizon: 0, Window: time.Second}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Stream(rng, sched, StreamConfig{Horizon: time.Minute, Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestStreamDropsOutOfHorizonArrivals(t *testing.T) {
	sched := loadgen.Schedule{-time.Second, 0, 30 * time.Second, time.Minute, 2 * time.Minute}
	windows, err := Stream(xrand.New(1), sched, StreamConfig{Horizon: time.Minute, Window: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	invs, _ := streamTotals(t, windows)
	if invs != 2 {
		t.Fatalf("streamed %d invocations, want 2 (negative and >= horizon dropped)", invs)
	}
}

// TestSyntheticWindowsPassValidation checks that every generator here
// produces windows the ingest validator admits, across the scales the
// benches and drift experiments use.
func TestSyntheticWindowsPassValidation(t *testing.T) {
	for _, scale := range []float64{0.1, 1, 3, 10} {
		for fn, w := range Batch(8, 200, 5, scale) {
			if err := monitoring.ValidateWindow(w); err != nil {
				t.Fatalf("Batch scale %v, %s: %v", scale, fn, err)
			}
		}
	}
	sched, err := loadgen.Poisson(50, time.Minute, xrand.New(2).Derive("arrivals"))
	if err != nil {
		t.Fatal(err)
	}
	windows, err := Stream(xrand.New(2).Derive("metrics"), sched, StreamConfig{
		Horizon: time.Minute, Window: 10 * time.Second, KeepAlive: time.Second,
		ScaleAt: func(w int) float64 { return float64(1 + w) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, invs := range windows {
		if err := monitoring.ValidateWindow(invs); err != nil {
			t.Fatalf("Stream window %d: %v", w, err)
		}
	}
}

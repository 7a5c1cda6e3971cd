package fleetsynth

import (
	"errors"
	"fmt"
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/warmpool"
	"sizeless/internal/xrand"
)

// StreamConfig shapes how a loadgen schedule becomes per-window monitoring
// batches.
type StreamConfig struct {
	// Horizon is the virtual-time extent of the run; arrivals at or beyond
	// it are dropped. Required.
	Horizon time.Duration
	// Window is the monitoring-window length; arrival t lands in window
	// int(t/Window). Required.
	Window time.Duration
	// KeepAlive is the warm-instance idle reclamation threshold — the
	// platform's keep-alive window. Instances idle longer are reaped, so
	// the next arrival pays a cold start. Zero or negative means instances
	// are never reclaimed: idle-gap cold starts disappear, but
	// concurrency-growth cold starts remain — whenever every pooled
	// instance is busy, the overflowing arrival still starts a fresh cold
	// instance, so bursty traffic pays cold starts even with an unreaped
	// pool. Only a serial schedule (no overlapping invocations) reduces to
	// "only the first arrival is cold".
	KeepAlive time.Duration
	// ScaleAt optionally multiplies the synthetic metric magnitudes (see
	// Window) per window index — the hook scenario labs use to inject a
	// distribution shift mid-run. Nil, or a non-positive factor, means 1.
	ScaleAt func(window int) float64
}

// Stream slices an arrival schedule into per-window invocation batches with
// a load-dependent cold-start model: the internal/warmpool lifecycle shared
// with ColdFraction (idle-gap reclamation after KeepAlive, LIFO routing to
// the most recently used warm instance, a new cold instance when none is
// idle). Sparse traffic therefore pays cold starts on idle gaps, spikes pay
// them on concurrency growth, and steady moderate traffic stays warm —
// cold-start frequency tracks the workload shape rather than a fixed
// fraction.
//
// Metric vectors come from the same lognormal generator as Window, drawn in
// arrival order from rng, so identical (schedule, config, stream) inputs
// yield bit-identical batches. Every window in [0, Horizon) is present in
// the result, empty windows included — drift walks index windows by time,
// not by traffic.
func Stream(rng *xrand.Stream, sched loadgen.Schedule, cfg StreamConfig) ([][]monitoring.Invocation, error) {
	if rng == nil {
		return nil, errors.New("fleetsynth: nil random stream")
	}
	if cfg.Horizon <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("fleetsynth: horizon %v and window %v must be positive", cfg.Horizon, cfg.Window)
	}
	nWindows := int((cfg.Horizon + cfg.Window - 1) / cfg.Window)
	out := make([][]monitoring.Invocation, nWindows)

	pool := warmpool.New[struct{}](cfg.KeepAlive)
	for _, t := range sched.Sorted() {
		if t < 0 || t >= cfg.Horizon {
			continue
		}
		w := int(t / cfg.Window)
		ws := 1.0
		if cfg.ScaleAt != nil {
			if f := cfg.ScaleAt(w); f > 0 {
				ws = f
			}
		}
		inv := monitoring.Invocation{Start: t}
		fill(rng, &inv, ws)
		inv.Duration = time.Duration(inv.Metrics[monitoring.ExecutionTime] * float64(time.Millisecond))
		in := pool.Warm(t)
		if in == nil {
			in = pool.Start(struct{}{})
			inv.ColdStart = true
		}
		in.Serve(t + inv.Duration)
		out[w] = append(out[w], inv)
	}
	return out, nil
}

// ColdStarts counts the cold-start invocations in a window.
func ColdStarts(window []monitoring.Invocation) int {
	n := 0
	for _, inv := range window {
		if inv.ColdStart {
			n++
		}
	}
	return n
}

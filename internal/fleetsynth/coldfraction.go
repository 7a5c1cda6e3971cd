package fleetsynth

import (
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/warmpool"
)

// ColdFraction replays an arrival schedule through the internal/warmpool
// lifecycle Stream uses — keep-alive idle reaping, LIFO routing to the
// most recently used warm instance, a fresh cold instance whenever every
// pooled instance is busy — with a fixed per-invocation service time, and
// returns the fraction of arrivals that start cold. It is the pure
// cold-start-exposure probe: no metric synthesis, no windowing, no
// randomness beyond the schedule itself, so identical inputs always yield
// the identical fraction.
//
// keepAlive <= 0 means instances are never reclaimed (only concurrency
// growth pays cold starts). An empty schedule returns 0.
func ColdFraction(sched loadgen.Schedule, service, keepAlive time.Duration) float64 {
	pool := warmpool.New[struct{}](keepAlive)
	total, colds := 0, 0
	for _, t := range sched.Sorted() {
		if t < 0 {
			continue
		}
		total++
		in := pool.Warm(t)
		if in == nil {
			in = pool.Start(struct{}{})
			colds++
		}
		in.Serve(t + service)
	}
	if total == 0 {
		return 0
	}
	return float64(colds) / float64(total)
}

package fleetsynth

import (
	"sort"
	"time"

	"sizeless/internal/loadgen"
)

// warmPool is the warm-instance model behind Stream and ColdFraction, in
// the style of internal/lambda without the runtime simulator: instances
// idle longer than keepAlive are reaped, an arrival goes to the most
// recently used idle instance (LIFO), and a fresh cold instance starts
// whenever none is idle. keepAlive <= 0 means instances are never reaped.
type warmPool struct {
	keepAlive time.Duration
	slots     []*warmSlot
}

type warmSlot struct {
	busyUntil time.Duration
	lastUsed  time.Duration
}

// route serves an arrival at t for the given service time and reports
// whether it started cold. Arrivals must be routed in time order.
func (p *warmPool) route(t, service time.Duration) (cold bool) {
	if p.keepAlive > 0 {
		kept := p.slots[:0]
		for _, s := range p.slots {
			if s.busyUntil <= t && t-s.lastUsed > p.keepAlive {
				continue
			}
			kept = append(kept, s)
		}
		p.slots = kept
	}

	var warm *warmSlot
	for _, s := range p.slots {
		if s.busyUntil > t {
			continue
		}
		if warm == nil || s.lastUsed > warm.lastUsed {
			warm = s
		}
	}
	cold = warm == nil
	if cold {
		warm = &warmSlot{}
		p.slots = append(p.slots, warm)
	}
	warm.busyUntil = t + service
	warm.lastUsed = warm.busyUntil
	return cold
}

// sortedArrivals returns a time-ordered copy of sched.
func sortedArrivals(sched loadgen.Schedule) loadgen.Schedule {
	arrivals := append(loadgen.Schedule(nil), sched...)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	return arrivals
}

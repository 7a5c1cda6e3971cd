// Package warmpool is the warm-instance lifecycle of a FaaS platform, the
// one policy behind every simulator that decides which invocations start
// cold: the harness measurements (internal/lambda) and the synthetic
// monitoring streams and cold-fraction probe (internal/fleetsynth).
//
// At each arrival the pool first reaps every idle instance that has been
// idle longer than the keep-alive window; a busy instance is never reaped,
// and a keep-alive <= 0 never reaps. The arrival then goes to the idle
// instance used most recently (platforms route warm sandboxes LIFO, which
// lets the rest age out); on a tie the earliest-started instance wins. When
// no instance is idle, the caller starts a new cold one. Arrivals must be
// offered in time order.
package warmpool

import "time"

// Pool is a set of live instances, each carrying a caller value of type T.
type Pool[T any] struct {
	keepAlive time.Duration
	insts     []*Instance[T] // in start order
}

// Instance is one live instance of a Pool.
type Instance[T any] struct {
	// Value is the caller's per-instance state.
	Value T
	// idleSince is when the last invocation ends: the instance is busy
	// before it and idle from it on. A busy instance's idle time t -
	// idleSince is negative, so it is never reaped.
	idleSince time.Duration
}

// New returns an empty pool that reaps instances idle longer than
// keepAlive; keepAlive <= 0 never reaps.
func New[T any](keepAlive time.Duration) *Pool[T] {
	return &Pool[T]{keepAlive: keepAlive}
}

// Warm reaps the instances idle beyond the keep-alive at t and returns the
// idle instance with the latest last use, or nil when every instance is
// busy.
func (p *Pool[T]) Warm(t time.Duration) *Instance[T] {
	if p.keepAlive > 0 {
		kept := p.insts[:0]
		for _, in := range p.insts {
			if t-in.idleSince <= p.keepAlive {
				kept = append(kept, in)
			}
		}
		p.insts = kept
	}
	var warm *Instance[T]
	for _, in := range p.insts {
		if in.idleSince <= t && (warm == nil || in.idleSince > warm.idleSince) {
			warm = in
		}
	}
	return warm
}

// Start adds a new (cold) instance holding v. It stays idle until its
// first Serve.
func (p *Pool[T]) Start(v T) *Instance[T] {
	in := &Instance[T]{Value: v}
	p.insts = append(p.insts, in)
	return in
}

// Serve marks the instance busy until end, when it turns idle again.
func (in *Instance[T]) Serve(end time.Duration) { in.idleSince = end }

// Len returns the number of live instances.
func (p *Pool[T]) Len() int { return len(p.insts) }

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
//
// The pool is indexed, so an arrival served by the instance Warm picks
// costs O(log n) in the number of live instances, not a scan: busy
// instances wait in a min-heap keyed by the time they turn idle, and idle
// instances sit in a stack sorted by that time, so reaping takes from the
// bottom and the pick is the top.
package warmpool

import "time"

// Pool is a set of live instances, each carrying a caller value of type T.
type Pool[T any] struct {
	keepAlive time.Duration
	started   int // instances started so far: the next start order
	// busy is a min-heap on (idleSince, order) of the instances that were
	// busy at the last Warm, or started or served since.
	busy []*Instance[T]
	// idle holds the instances idle at the last Warm, ascending by
	// idleSince with ties in descending start order: reaping takes from
	// the bottom (first), and the top (last) is the next pick.
	idle []*Instance[T]
}

// Instance is one live instance of a Pool.
type Instance[T any] struct {
	// Value is the caller's per-instance state.
	Value T
	// idleSince is when the last invocation ends: the instance is busy
	// before it and idle from it on.
	idleSince time.Duration
	order     int // start order, the tie-break
	pool      *Pool[T]
	// pos is the index in pool.busy, or one of the states below.
	pos int
}

const (
	posIdle   = -1 // in pool.idle
	posReaped = -2 // no longer in the pool
)

// New returns an empty pool that reaps instances idle longer than
// keepAlive; keepAlive <= 0 never reaps.
func New[T any](keepAlive time.Duration) *Pool[T] {
	return &Pool[T]{keepAlive: keepAlive}
}

// Warm reaps the instances idle beyond the keep-alive at t and returns the
// idle instance with the latest last use, or nil when every instance is
// busy.
func (p *Pool[T]) Warm(t time.Duration) *Instance[T] {
	for len(p.busy) > 0 && p.busy[0].idleSince <= t {
		p.pushIdle(p.popBusy())
	}
	if p.keepAlive > 0 {
		n := 0
		for n < len(p.idle) && t-p.idle[n].idleSince > p.keepAlive {
			p.idle[n].pos = posReaped
			p.idle[n] = nil
			n++
		}
		p.idle = p.idle[n:]
	}
	if len(p.idle) == 0 {
		return nil
	}
	return p.idle[len(p.idle)-1]
}

// Start adds a new (cold) instance holding v. It stays idle until its
// first Serve: idle since time 0, so it waits in the busy heap only until
// the next Warm, unless served first.
func (p *Pool[T]) Start(v T) *Instance[T] {
	in := &Instance[T]{Value: v, order: p.started, pool: p}
	p.started++
	p.pushBusy(in)
	return in
}

// Serve marks the instance busy until end, when it turns idle again.
func (in *Instance[T]) Serve(end time.Duration) {
	p := in.pool
	switch in.pos {
	case posReaped:
		in.idleSince = end
	case posIdle:
		p.removeIdle(in)
		in.idleSince = end
		p.pushBusy(in)
	default:
		in.idleSince = end
		p.fixBusy(in.pos)
	}
}

// Len returns the number of live instances.
func (p *Pool[T]) Len() int { return len(p.busy) + len(p.idle) }

// before orders the busy heap: a turns idle before b, or at the same time
// but started earlier.
func before[T any](a, b *Instance[T]) bool {
	if a.idleSince != b.idleSince {
		return a.idleSince < b.idleSince
	}
	return a.order < b.order
}

// preferred orders the idle stack from the top: a was used more recently
// than b, or at the same time but started earlier.
func preferred[T any](a, b *Instance[T]) bool {
	if a.idleSince != b.idleSince {
		return a.idleSince > b.idleSince
	}
	return a.order < b.order
}

// pushIdle inserts in into the idle stack at its sorted place. Instances
// normally turn idle in time order, so the place is at or near the top.
func (p *Pool[T]) pushIdle(in *Instance[T]) {
	in.pos = posIdle
	p.idle = append(p.idle, in)
	i := len(p.idle) - 1
	for ; i > 0 && preferred(p.idle[i-1], in); i-- {
		p.idle[i] = p.idle[i-1]
	}
	p.idle[i] = in
}

// removeIdle takes in out of the idle stack; a served pick is the top.
func (p *Pool[T]) removeIdle(in *Instance[T]) {
	i := len(p.idle) - 1
	for p.idle[i] != in {
		i--
	}
	copy(p.idle[i:], p.idle[i+1:])
	p.idle[len(p.idle)-1] = nil
	p.idle = p.idle[:len(p.idle)-1]
}

func (p *Pool[T]) pushBusy(in *Instance[T]) {
	in.pos = len(p.busy)
	p.busy = append(p.busy, in)
	p.up(in.pos)
}

func (p *Pool[T]) popBusy() *Instance[T] {
	h := p.busy
	top := h[0]
	last := len(h) - 1
	p.swap(0, last)
	h[last] = nil
	p.busy = h[:last]
	p.down(0)
	return top
}

// fixBusy restores the heap after the key at i changed.
func (p *Pool[T]) fixBusy(i int) {
	if !p.down(i) {
		p.up(i)
	}
}

func (p *Pool[T]) swap(i, j int) {
	h := p.busy
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (p *Pool[T]) up(i int) {
	h := p.busy
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

// down sifts i down and reports whether it moved.
func (p *Pool[T]) down(i int) bool {
	h := p.busy
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], h[i]) {
			break
		}
		p.swap(i, c)
		i = c
	}
	return i > start
}

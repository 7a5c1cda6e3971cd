package warmpool

import (
	"math/rand"
	"testing"
	"time"
)

// served starts an instance labelled id and serves it until end.
func served(p *Pool[int], id int, end time.Duration) *Instance[int] {
	in := p.Start(id)
	in.Serve(end)
	return in
}

func TestReapBoundary(t *testing.T) {
	p := New[int](10 * time.Second)
	served(p, 1, 0)
	// Idle for exactly the keep-alive: kept and warm.
	if in := p.Warm(10 * time.Second); in == nil || in.Value != 1 {
		t.Fatalf("Warm at keep-alive = %v, want instance 1", in)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	// One nanosecond longer: reaped.
	if in := p.Warm(10*time.Second + 1); in != nil {
		t.Fatalf("Warm past keep-alive = instance %d, want nil", in.Value)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after reap = %d, want 0", p.Len())
	}
}

func TestBusyNeverReaped(t *testing.T) {
	p := New[int](time.Second)
	served(p, 1, time.Hour)
	// Long past its start but still busy: kept, and not warm.
	if in := p.Warm(30 * time.Minute); in != nil {
		t.Fatalf("busy instance offered as warm: %d", in.Value)
	}
	if p.Len() != 1 {
		t.Fatalf("busy instance reaped: Len = %d, want 1", p.Len())
	}
	if in := p.Warm(time.Hour); in == nil || in.Value != 1 {
		t.Fatalf("Warm when the instance frees = %v, want instance 1", in)
	}
}

func TestNonPositiveKeepAliveNeverReaps(t *testing.T) {
	for _, ka := range []time.Duration{0, -time.Second} {
		p := New[int](ka)
		served(p, 1, 0)
		served(p, 2, time.Second)
		if in := p.Warm(1000 * time.Hour); in == nil || in.Value != 2 {
			t.Fatalf("keepAlive %v: Warm = %v, want instance 2", ka, in)
		}
		if p.Len() != 2 {
			t.Fatalf("keepAlive %v: Len = %d, want 2", ka, p.Len())
		}
	}
}

func TestWarmPicksMostRecentlyUsed(t *testing.T) {
	p := New[int](time.Minute)
	served(p, 1, 3*time.Second)
	served(p, 2, 5*time.Second)
	served(p, 3, 4*time.Second)
	served(p, 4, 20*time.Second) // busy at t = 10s
	if in := p.Warm(10 * time.Second); in == nil || in.Value != 2 {
		t.Fatalf("LIFO pick = %v, want instance 2", in)
	}
}

func TestWarmTieGoesToEarliestStarted(t *testing.T) {
	p := New[int](time.Minute)
	for id := 1; id <= 3; id++ {
		served(p, id, 2*time.Second)
	}
	if in := p.Warm(5 * time.Second); in == nil || in.Value != 1 {
		t.Fatalf("tie pick = %v, want instance 1", in)
	}
}

func TestLenAfterReap(t *testing.T) {
	p := New[int](10 * time.Second)
	served(p, 1, 0)
	served(p, 2, 5*time.Second)
	served(p, 3, 40*time.Second) // busy at t = 12s
	served(p, 4, 12*time.Second)
	// At t = 12s only instance 1 (idle 12s) is past the keep-alive.
	in := p.Warm(12 * time.Second)
	if in == nil || in.Value != 4 {
		t.Fatalf("Warm = %v, want instance 4", in)
	}
	if p.Len() != 3 {
		t.Fatalf("Len after reap = %d, want 3", p.Len())
	}
	// A fresh start counts at once.
	p.Start(5)
	if p.Len() != 4 {
		t.Fatalf("Len after Start = %d, want 4", p.Len())
	}
}

// scanPool is the reference Pool must match: the lifecycle rules applied
// by a linear scan, with every instance in start order and a reap pass and
// a pick pass over all of them at each arrival.
type scanPool struct {
	keepAlive time.Duration
	insts     []*scanInstance // in start order
}

type scanInstance struct {
	id        int
	idleSince time.Duration
}

func (p *scanPool) warm(t time.Duration) *scanInstance {
	if p.keepAlive > 0 {
		kept := p.insts[:0]
		for _, in := range p.insts {
			if t-in.idleSince <= p.keepAlive {
				kept = append(kept, in)
			}
		}
		p.insts = kept
	}
	var warm *scanInstance
	for _, in := range p.insts {
		if in.idleSince <= t && (warm == nil || in.idleSince > warm.idleSince) {
			warm = in
		}
	}
	return warm
}

func (p *scanPool) start(id int) *scanInstance {
	in := &scanInstance{id: id}
	p.insts = append(p.insts, in)
	return in
}

// drivePools runs a Pool and a scanPool in lockstep over the call sequence
// ops encodes and fails at the first call after which they differ in the
// instance returned or in Len. Times move forward in whole milliseconds,
// so equal idle times are common. The first byte picks the keep-alive,
// including 0 and a negative one.
func drivePools(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	const u = time.Millisecond
	keepAlive := time.Duration(int(ops[0]%12)-2) * u // -2 … 9 ms
	ops = ops[1:]
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	p := New[int](keepAlive)
	ref := &scanPool{keepAlive: keepAlive}
	var insts []*Instance[int]
	var refs []*scanInstance
	var now time.Duration
	call := 0
	check := func(what string, got *Instance[int], want *scanInstance) {
		t.Helper()
		call++
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("call %d (%s at %v, keep-alive %v): pool returned %v, scan %v", call, what, now, keepAlive, got, want)
		case got != nil && got.Value != want.id:
			t.Fatalf("call %d (%s at %v, keep-alive %v): pool picked %d, scan %d", call, what, now, keepAlive, got.Value, want.id)
		case p.Len() != len(ref.insts):
			t.Fatalf("call %d (%s at %v, keep-alive %v): Len = %d, scan has %d", call, what, now, keepAlive, p.Len(), len(ref.insts))
		}
	}
	start := func() int {
		id := len(insts)
		insts = append(insts, p.Start(id))
		refs = append(refs, ref.start(id))
		check("Start", insts[id], refs[id])
		return id
	}
	serve := func(id int, b byte) {
		end := now + time.Duration(b%6)*u
		insts[id].Serve(end)
		refs[id].idleSince = end
		check("Serve", nil, nil)
	}
	warm := func() *Instance[int] {
		in := p.Warm(now)
		check("Warm", in, ref.warm(now))
		return in
	}
	for len(ops) > 0 {
		b := next()
		switch b & 3 {
		case 0: // an arrival: served, throttled, or a pick left unserved
			now += time.Duration(b>>2%8) * u
			c := next()
			in := warm()
			switch {
			case in == nil && c&1 == 0:
				// Throttled: no instance starts.
			case in == nil:
				id := start()
				if c&2 != 0 {
					serve(id, c>>2)
				}
			case c&1 != 0:
				serve(in.Value, c>>2)
			}
		case 1: // serve any instance started so far, reaped or not
			if len(insts) > 0 {
				serve(int(next())%len(insts), b>>2)
			}
		case 2: // an arrival exactly at some instance's reap boundary
			if len(refs) > 0 {
				if at := refs[int(b>>2)%len(refs)].idleSince + keepAlive; at > now {
					now = at
				}
				warm()
			}
		case 3: // a start beside any idle instances
			id := start()
			if b&4 != 0 {
				serve(id, b>>3)
			}
		}
	}
}

func TestPoolMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		ops := make([]byte, 64+rng.Intn(4000))
		rng.Read(ops)
		drivePools(t, ops)
	}
}

func FuzzPoolMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 1+rng.Intn(512))
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(drivePools)
}

package warmpool

import (
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

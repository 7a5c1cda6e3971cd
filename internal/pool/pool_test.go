package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [37]atomic.Int32
		err := Run(context.Background(), len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	later := errors.New("later")
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), 8, workers, func(i int) error {
			switch i {
			case 2:
				return boom
			case 6:
				return later
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: got %v, want the lowest-indexed error", workers, err)
		}
	}
}

func TestRunEmptyAndNilCtx(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero jobs should be a no-op, got %v", err)
	}
	ran := false
	if err := Run(nil, 1, 1, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("nil ctx should default to Background: err=%v ran=%v", err, ran)
	}
}

func TestRunCancellationStopsNewJobs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := Run(ctx, 100, workers, func(i int) error {
			if started.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := started.Load(); got >= 100 {
			t.Errorf("workers=%d: cancellation did not stop job claims: %d started", workers, got)
		}
	}
}

// TestRunInlineJobErrorBeatsCancellation: with one worker, a job that
// fails before ctx is cancelled has the lower index, so its error wins.
func TestRunInlineJobErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Run(ctx, 5, 1, func(i int) error {
		if i == 1 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want the failed job's error", err)
	}
}

// TestRunSlicesSlicesInOrderWithoutOverlap runs every job's budget in
// slices of ceil(units/workers), or whole when jobs ≤ workers, one slice
// at a time per job and in order. The race detector checks the
// happens-before edges between one job's slices; the in-flight counter
// checks that none overlap.
func TestRunSlicesSlicesInOrderWithoutOverlap(t *testing.T) {
	const jobs, units = 5, 10
	for _, workers := range []int{1, 2, 3, 4, 5, 8} {
		var inFlight [jobs]atomic.Int32
		var slices [jobs][]int // written by one slice at a time per job
		err := RunSlices(context.Background(), jobs, workers, units, func(i, k int) (bool, error) {
			if inFlight[i].Add(1) != 1 {
				t.Errorf("workers=%d: job %d runs two slices at once", workers, i)
			}
			slices[i] = append(slices[i], k)
			inFlight[i].Add(-1)
			return false, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		slice := units
		if workers < jobs {
			slice = (units + workers - 1) / workers
		}
		for i, ks := range slices {
			sum := 0
			for s, k := range ks {
				if want := min(slice, units-sum); k != want {
					t.Errorf("workers=%d: job %d slice %d has %d units, want %d", workers, i, s, k, want)
				}
				sum += k
			}
			if sum != units {
				t.Errorf("workers=%d: job %d ran %d of %d units", workers, i, sum, units)
			}
		}
	}
}

// TestRunSlicesOneWorkerRunsJobsInIndexOrder: with one worker, or as
// many workers as jobs, every job is one whole slice claimed in index
// order.
func TestRunSlicesOneWorkerRunsJobsInIndexOrder(t *testing.T) {
	var order []int
	err := RunSlices(context.Background(), 4, 1, 7, func(i, k int) (bool, error) {
		if k != 7 {
			t.Errorf("job %d got a %d-unit slice, want the whole budget", i, k)
		}
		order = append(order, i)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("one worker ran jobs in order %v, want [0 1 2 3]", order)
	}
}

// barrier holds each arriving slice until `parties` slices have started,
// then releases them together as one round. It counts the rounds. A
// round that cannot fill (a worker left idle) fails after a generous
// wait instead of hanging the test.
type barrier struct {
	mu      sync.Mutex
	parties int
	arrived int
	rounds  int
	release chan struct{}
}

func newBarrier(parties int) *barrier {
	return &barrier{parties: parties, release: make(chan struct{})}
}

func (b *barrier) wait() bool {
	b.mu.Lock()
	ch := b.release
	if b.arrived++; b.arrived == b.parties {
		b.arrived = 0
		b.rounds++
		b.release = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return true
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(20 * time.Second):
		return false
	}
}

// TestRunSlicesKeepsEveryWorkerBusy: M jobs of W slices each on W workers
// finish in exactly M rounds of W slice starts. Each slice waits at a
// barrier until W slices have started, so a round with an idle worker
// cannot complete; the test counts rounds, not time.
func TestRunSlicesKeepsEveryWorkerBusy(t *testing.T) {
	for _, c := range []struct{ jobs, workers int }{{3, 2}, {5, 2}, {4, 3}, {5, 3}, {6, 4}, {7, 4}} {
		b := newBarrier(c.workers)
		var idle atomic.Bool
		err := RunSlices(context.Background(), c.jobs, c.workers, 6*c.workers, func(i, k int) (bool, error) {
			if !b.wait() {
				idle.Store(true)
			}
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if idle.Load() {
			t.Errorf("%d jobs on %d workers: a round started fewer than %d slices", c.jobs, c.workers, c.workers)
			continue
		}
		if b.rounds != c.jobs {
			t.Errorf("%d jobs × %d slices on %d workers took %d rounds, want %d", c.jobs, c.workers, c.workers, b.rounds, c.jobs)
		}
	}
}

// TestRunSlicesEarlyFinishFreesWorker: a job that reports done after its
// first slice is not run again, its worker moves on, and every other job
// still runs its whole budget.
func TestRunSlicesEarlyFinishFreesWorker(t *testing.T) {
	const jobs, workers, units = 4, 2, 8
	var ran [jobs]atomic.Int32
	var total [jobs]atomic.Int32
	err := RunSlices(context.Background(), jobs, workers, units, func(i, k int) (bool, error) {
		ran[i].Add(1)
		total[i].Add(int32(k))
		return i == 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran[1].Load(); got != 1 {
		t.Errorf("early-finished job ran %d slices, want 1", got)
	}
	for _, i := range []int{0, 2, 3} {
		if got := total[i].Load(); got != units {
			t.Errorf("job %d ran %d of %d units", i, got, units)
		}
	}
}

func TestRunSlicesCancellationStopsNewSlices(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := RunSlices(ctx, 6, workers, 12, func(i, k int) (bool, error) {
			if started.Add(1) == 2 {
				cancel()
			}
			return false, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// Slices already running when cancel lands finish, nothing new starts.
		if got := started.Load(); got > int32(1+workers) {
			t.Errorf("workers=%d: %d slices started after cancellation", workers, got)
		}
	}
}

func TestRunSlicesReturnsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	later := errors.New("later")
	var afterErr atomic.Int32
	err := RunSlices(context.Background(), 6, 3, 9, func(i, k int) (bool, error) {
		switch i {
		case 4:
			return false, later
		case 2:
			return false, boom
		case 1:
			afterErr.Add(1) // a failed job does not stop the others
		}
		return false, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want the lowest-indexed error", err)
	}
	if got := afterErr.Load(); got != 3 {
		t.Errorf("job 1 ran %d slices, want all 3", got)
	}
	if err := RunSlices(context.Background(), 0, 2, 5, nil); err != nil {
		t.Errorf("zero jobs should be a no-op, got %v", err)
	}
	if err := RunSlices(context.Background(), 2, 2, 0, func(int, int) (bool, error) { return true, nil }); err == nil {
		t.Error("a zero-unit budget should be rejected")
	}
}

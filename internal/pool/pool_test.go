package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
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
	err := Run(context.Background(), 8, 4, func(i int) error {
		switch i {
		case 2:
			return boom
		case 6:
			return later
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want the lowest-indexed error", err)
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
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	err := Run(ctx, 100, 2, func(i int) error {
		if started.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if got := started.Load(); got >= 100 {
		t.Errorf("cancellation did not stop job claims: %d started", got)
	}
}

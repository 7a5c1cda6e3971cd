// Package pool provides the bounded worker pool shared by every fan-out in
// the training and measurement pipelines: ensemble members, grid-search
// configurations, cross-validation folds, fine-tune clones, multi-start
// stability traces, and transfer-matrix cells all run their independent
// jobs through Run instead of hand-rolled goroutine/semaphore loops.
//
// Determinism contract: Run only schedules; each job must derive its own
// randomness from its index (the repository-wide xrand convention), so
// results are identical for any worker count.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes fn(0..n-1) on up to `workers` goroutines (0 = GOMAXPROCS)
// and returns the error of the lowest-indexed failed job, or nil. Jobs are
// claimed in index order. When ctx is cancelled, workers stop claiming new
// jobs and the context's error is reported for the first unstarted job;
// already-running jobs finish (they are expected to observe ctx
// themselves). A failed job does not stop the others.
func Run(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		// Inline fast path: no goroutine, no atomics — the common shape on
		// a single-core host and inside nested pools.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			errs[i] = fn(i)
		}
		return firstErr(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

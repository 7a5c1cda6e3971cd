// Package pool provides the bounded worker pool shared by every fan-out in
// the training and measurement pipelines: ensemble members, grid-search
// configurations, cross-validation folds, fine-tune clones, multi-start
// stability traces, and transfer-matrix cells all run their independent
// jobs through Run instead of hand-rolled goroutine/semaphore loops.
// RunSlices is Run for long resumable jobs (ensemble members in training
// and fine-tuning): it cuts each job into slices and interleaves them, so
// that no worker idles while another job still has budget for it.
//
// Determinism contract: Run only schedules; each job must derive its own
// randomness from its index (the repository-wide xrand convention), so
// results are identical for any worker count.
package pool

import (
	"context"
	"errors"
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
	workers = bound(workers, n)
	if workers == 1 {
		// Inline fast path: no goroutine, no atomics, no error slice — the
		// common shape on a single-core host and inside nested pools. Jobs
		// run in index order, so the first error seen is the
		// lowest-indexed.
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
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

// RunSlices runs n resumable jobs of `units` work units each (an ensemble
// member's epoch budget) on up to `workers` goroutines (0 = GOMAXPROCS).
// Each job's budget is cut into slices of ceil(units/workers) units, or
// one slice per job when n ≤ workers. A worker runs one slice, puts the
// job back in the ready queue while it has units left, and takes the
// ready job with the most units left (the longest-waiting one among
// equals). Progress therefore stays level across jobs, and n jobs finish
// in n·units/workers unit-times instead of ceil(n/workers)·units. With one
// worker, or with n ≤ workers, every job is one slice, claimed in index
// order as in Run.
//
// fn(i, k) runs the next k units of job i (the last slice may be shorter)
// and reports done to finish the job early; its worker then takes the next
// job. A job's slices run in order and never two at once, so fn may keep
// per-job state without locking.
//
// Errors and cancellation follow Run: a failed job stops while the others
// go on; once ctx is done no new slice starts and every unfinished job
// reports the context's error; the lowest-indexed error is returned.
func RunSlices(ctx context.Context, n, workers, units int, fn func(i, k int) (done bool, err error)) error {
	if n <= 0 {
		return nil
	}
	if units <= 0 {
		return errors.New("pool: a sliced job needs a positive number of units")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = bound(workers, n)
	slice := units
	if workers < n {
		slice = (units + workers - 1) / workers
	}
	errs := make([]error, n)
	left := make([]int, n)
	// ready holds, in arrival order, the unfinished jobs no worker is
	// running; a job is there or with exactly one worker until it
	// finishes. open counts the unfinished jobs.
	ready := make([]int, n)
	for i := range ready {
		ready[i] = i
		left[i] = units
	}
	open := n
	var mu sync.Mutex
	wake := sync.NewCond(&mu)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for len(ready) == 0 && open > 0 {
			wake.Wait()
		}
		if len(ready) == 0 {
			return 0, false
		}
		q := 0
		for r := 1; r < len(ready); r++ {
			if left[ready[r]] > left[ready[q]] {
				q = r
			}
		}
		i := ready[q]
		ready = append(ready[:q], ready[q+1:]...)
		return i, true
	}
	put := func(i int, finished bool) {
		mu.Lock()
		defer mu.Unlock()
		if !finished {
			ready = append(ready, i)
			wake.Signal()
			return
		}
		if open--; open == 0 {
			wake.Broadcast()
		}
	}
	work := func() {
		for {
			i, ok := take()
			if !ok {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				put(i, true)
				continue
			}
			k := min(slice, left[i])
			done, err := fn(i, k)
			left[i] -= k
			errs[i] = err
			put(i, done || err != nil || left[i] == 0)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr(errs)
}

// bound resolves a worker count: 0 (or less) means GOMAXPROCS, and there
// are never more workers than jobs.
func bound(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

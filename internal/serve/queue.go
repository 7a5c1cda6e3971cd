package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"sizeless/internal/monitoring"
)

// ErrQueueFull is the backpressure sentinel: at least one shard's ingest
// queue could not absorb the request within its depth and pending-bytes
// bounds. HTTP maps it to 429 with a Retry-After header; embedded callers
// match it with errors.Is.
var ErrQueueFull = errors.New("serve: shard ingest queue full")

// ErrBatchTooLarge rejects a single request whose windows alone exceed a
// shard queue's byte budget — waiting cannot help, so it maps to 413, not
// 429.
var ErrBatchTooLarge = errors.New("serve: batch exceeds a shard queue's byte budget")

// QueueFullError reports which shard saturated and how. It unwraps to
// ErrQueueFull.
type QueueFullError struct {
	Shard        int
	Depth        int   // jobs queued or in flight on the shard
	Capacity     int   // configured depth bound
	PendingBytes int64 // bytes queued or in flight on the shard
	MaxBytes     int64 // configured byte bound
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: shard %d ingest queue full (%d/%d jobs, %d/%d pending bytes)",
		e.Shard, e.Depth, e.Capacity, e.PendingBytes, e.MaxBytes)
}

func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// invocationBytes is the in-memory footprint of one buffered invocation —
// the unit of the pending-bytes accounting.
var invocationBytes = int64(reflect.TypeOf(monitoring.Invocation{}).Size())

// jobOverheadBytes charges each queued job for its fixed bookkeeping
// (slice header, ID string, channel slot) so a flood of tiny windows cannot
// dodge the byte bound.
const jobOverheadBytes = 128

// job is one function's window on its way into Service.Ingest.
type job struct {
	fn    string
	invs  []monitoring.Invocation
	bytes int64
}

func newJob(fn string, invs []monitoring.Invocation) job {
	return job{fn: fn, invs: invs, bytes: int64(len(invs))*invocationBytes + int64(len(fn)) + jobOverheadBytes}
}

// shardQueue is the bounded ingest buffer in front of one service shard.
// Depth is bounded by the jobs channel's capacity; bytes by an explicit
// counter. Both include jobs currently being processed, so the bound is a
// true memory ceiling for windows the daemon has accepted but not yet
// committed: the service owns a window only once Ingest returns.
type shardQueue struct {
	mu       sync.Mutex
	jobs     chan job
	pending  int   // jobs queued or in flight
	bytes    int64 // bytes queued or in flight
	maxBytes int64

	// drainPerJob is an EWMA of the observed per-job service time (the
	// drainer's Ingest wall time, which excludes idle gaps between jobs).
	// Zero until the first job completes; the Retry-After hint is the
	// minRetryAfter floor until then.
	drainPerJob time.Duration
}

func newShardQueue(depth int, maxBytes int64) *shardQueue {
	return &shardQueue{jobs: make(chan job, depth), maxBytes: maxBytes}
}

// release returns a processed job's budget and folds the job's service
// time into the shard's drain-rate estimate. Called by the drainer after
// Service.Ingest returns, never while the window is still referenced.
func (q *shardQueue) release(j job, took time.Duration) {
	q.mu.Lock()
	q.pending--
	q.bytes -= j.bytes
	q.observeDrainLocked(took)
	q.mu.Unlock()
}

// observeDrainLocked updates the per-job drain-time EWMA (α = 1/4: heavy
// enough to track load shifts, light enough to ride out one slow window).
// Callers hold q.mu.
func (q *shardQueue) observeDrainLocked(took time.Duration) {
	if took < 0 {
		took = 0
	}
	if q.drainPerJob == 0 {
		q.drainPerJob = took
		return
	}
	q.drainPerJob = (3*q.drainPerJob + took) / 4
}

// Bounds for the adaptive Retry-After hint: never tell a client to come
// back sooner than the header's 1s resolution, never park it longer than
// a minute no matter how deep the backlog looks.
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

// retryAfter estimates how long a rejected client should back off: the
// time for the shard's current backlog to drain at the observed per-job
// rate, clamped to [minRetryAfter, maxRetryAfter]. As the drainers work
// the queue down, pending shrinks and so does the advertised delay.
// A shard with no drain history yet gets minRetryAfter.
func (q *shardQueue) retryAfter() time.Duration {
	q.mu.Lock()
	per := q.drainPerJob
	pending := q.pending
	q.mu.Unlock()
	d := time.Duration(pending) * per
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// enqueueBatch admits a request's jobs all-or-nothing across the touched
// shard queues: capacity on every shard is checked while holding the
// queues' locks (taken in ascending shard order, so concurrent requests
// cannot deadlock), and only then are the jobs published. A request never
// partially lands: either every window is queued, or none is and the
// caller sees which shard saturated.
func (s *Server) enqueueBatch(jobs []job) error {
	byShard := make(map[int][]job)
	for _, j := range jobs {
		si := s.svc.ShardFor(j.fn)
		byShard[si] = append(byShard[si], j)
	}
	touched := make([]int, 0, len(byShard))
	for si := range byShard {
		touched = append(touched, si)
	}
	sort.Ints(touched)

	for _, si := range touched {
		s.queues[si].mu.Lock()
	}
	defer func() {
		for _, si := range touched {
			s.queues[si].mu.Unlock()
		}
	}()

	for _, si := range touched {
		q := s.queues[si]
		group := byShard[si]
		var groupBytes int64
		for _, j := range group {
			groupBytes += j.bytes
		}
		if groupBytes > q.maxBytes {
			return fmt.Errorf("%w: shard %d: %d bytes > %d budget", ErrBatchTooLarge, si, groupBytes, q.maxBytes)
		}
		if q.pending+len(group) > cap(q.jobs) || q.bytes+groupBytes > q.maxBytes {
			return &QueueFullError{
				Shard:        si,
				Depth:        q.pending,
				Capacity:     cap(q.jobs),
				PendingBytes: q.bytes,
				MaxBytes:     q.maxBytes,
			}
		}
	}

	for _, si := range touched {
		q := s.queues[si]
		for _, j := range byShard[si] {
			q.pending++
			q.bytes += j.bytes
			s.inflight.Add(1)
			// Never blocks: pending <= cap was just verified under q.mu,
			// and pending only decreases concurrently.
			q.jobs <- j
		}
	}
	return nil
}

// QueueStatus is one shard queue's live occupancy, as reported by /v1/healthz.
type QueueStatus struct {
	Shard        int   `json:"shard"`
	Depth        int   `json:"depth"`
	Capacity     int   `json:"capacity"`
	PendingBytes int64 `json:"pending_bytes"`
	MaxBytes     int64 `json:"max_bytes"`
}

func (s *Server) queueStatuses() []QueueStatus {
	out := make([]QueueStatus, len(s.queues))
	for i, q := range s.queues {
		q.mu.Lock()
		out[i] = QueueStatus{
			Shard:        i,
			Depth:        q.pending,
			Capacity:     cap(q.jobs),
			PendingBytes: q.bytes,
			MaxBytes:     q.maxBytes,
		}
		q.mu.Unlock()
	}
	return out
}

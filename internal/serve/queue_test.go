package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

// newQueueServer builds an un-Run daemon (no drainers), so queue occupancy
// only changes through enqueueBatch and explicit release — deterministic
// ground for bound assertions.
func newQueueServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Predictor = testPredictor(t)
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fnOnShard finds n distinct function IDs hashing to the given shard.
func fnOnShard(t *testing.T, srv *Server, shard, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		id := fmt.Sprintf("probe-fn-%05d", i)
		if srv.svc.ShardFor(id) == shard {
			out = append(out, id)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d functions on shard %d", len(out), n, shard)
	}
	return out
}

func window(n int) []monitoring.Invocation {
	return fleetsynth.Window(xrand.New(9), n, 1)
}

func TestQueueDepthBound(t *testing.T) {
	srv := newQueueServer(t, Config{QueueDepth: 2})
	ids := fnOnShard(t, srv, 5, 3)
	invs := window(10)

	if err := srv.enqueueBatch([]job{newJob(ids[0], invs), newJob(ids[1], invs)}); err != nil {
		t.Fatal(err)
	}
	err := srv.enqueueBatch([]job{newJob(ids[2], invs)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third job on a depth-2 queue: err = %v, want ErrQueueFull", err)
	}
	var full *QueueFullError
	if !errors.As(err, &full) || full.Shard != 5 || full.Depth != 2 || full.Capacity != 2 {
		t.Errorf("QueueFullError = %+v, want shard 5 at 2/2", full)
	}

	// release returns the budget and admission resumes.
	j := <-srv.queues[5].jobs
	srv.queues[5].release(j, 0)
	srv.inflight.Done()
	if err := srv.enqueueBatch([]job{newJob(ids[2], invs)}); err != nil {
		t.Fatalf("enqueue after release: %v", err)
	}
}

func TestQueueByteBound(t *testing.T) {
	// Probe IDs all have the same length, so one representative job prices
	// the budget: one 40-invocation window fits with room to spare, two
	// cannot.
	budget := newJob("probe-fn-00000", window(40)).bytes + 10
	srv := newQueueServer(t, Config{QueueDepth: 100, QueueBytes: budget})
	ids := fnOnShard(t, srv, 3, 2)

	// One 40-invocation window fits; a second one exceeds the byte budget
	// long before the depth bound.
	if err := srv.enqueueBatch([]job{newJob(ids[0], window(40))}); err != nil {
		t.Fatal(err)
	}
	err := srv.enqueueBatch([]job{newJob(ids[1], window(40))})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("byte-saturated queue: err = %v, want ErrQueueFull", err)
	}
	q := srv.queues[3]
	q.mu.Lock()
	pending, bytes := q.pending, q.bytes
	q.mu.Unlock()
	if pending != 1 || bytes > budget {
		t.Errorf("queue holds %d jobs / %d bytes after rejection, want 1 job within %d",
			pending, bytes, budget)
	}
}

// TestEnqueueBatchAllOrNothing: when one touched shard cannot absorb its
// share, no shard receives anything — a request never partially lands.
func TestEnqueueBatchAllOrNothing(t *testing.T) {
	srv := newQueueServer(t, Config{QueueDepth: 1})
	a := fnOnShard(t, srv, 2, 1)[0]
	b := fnOnShard(t, srv, 7, 2)
	invs := window(10)

	err := srv.enqueueBatch([]job{newJob(a, invs), newJob(b[0], invs), newJob(b[1], invs)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull (shard 7 over depth)", err)
	}
	for _, si := range []int{2, 7} {
		q := srv.queues[si]
		q.mu.Lock()
		pending := q.pending
		q.mu.Unlock()
		if pending != 0 {
			t.Errorf("shard %d holds %d jobs after an all-or-nothing rejection", si, pending)
		}
	}
}

// TestRetryAfterShrinksAsQueueDrains: the 429 Retry-After hint is derived
// from the rejecting shard's observed drain rate — pending × per-job EWMA,
// rounded up to whole seconds — so the advertised delay shrinks as the
// drainers work the backlog down. Before any job has completed, the hint
// is the 1s floor. The daemon is un-Run (no drainers), so
// the test plays the drainer by popping jobs and releasing them with a
// synthetic service time.
func TestRetryAfterShrinksAsQueueDrains(t *testing.T) {
	srv := newQueueServer(t, Config{
		ServiceOptions: []sizeless.Option{sizeless.WithShards(1)},
		QueueDepth:     4,
	})
	ts := httptest.NewServer(srv.mux)
	defer ts.Close()
	q := srv.queues[0]
	ids := fnOnShard(t, srv, 0, 9)
	invs := window(10)

	// reject posts an over-capacity request and returns its Retry-After.
	reject := func(fns []string) string {
		t.Helper()
		windows := map[string][]monitoring.Invocation{}
		for _, fn := range fns {
			windows[fn] = invs
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
			bytes.NewReader(mustMarshal(t, IngestRequest{Windows: windows})))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("ingest = %d, want 429", resp.StatusCode)
		}
		return resp.Header.Get("Retry-After")
	}
	// drain plays the shard drainer: pop n jobs, each observed at took.
	drain := func(n int, took time.Duration) {
		for i := 0; i < n; i++ {
			j := <-q.jobs
			q.release(j, took)
			srv.inflight.Done()
		}
	}

	// Fill the depth-4 queue; with no drain history the rejection gets
	// the 1s floor.
	jobs := make([]job, 4)
	for i := range jobs {
		jobs[i] = newJob(ids[i], invs)
	}
	if err := srv.enqueueBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if got := reject(ids[4:5]); got != "1" {
		t.Errorf("Retry-After with no drain history = %q, want \"1\"", got)
	}

	// One job drains at 2s: 3 pending × 2s → 6s.
	drain(1, 2*time.Second)
	if got := reject(ids[4:6]); got != "6" {
		t.Errorf("Retry-After at 3 pending × 2s = %q, want \"6\"", got)
	}

	// Two more drain: 1 pending × 2s → 2s. The hint shrank with the queue.
	drain(2, 2*time.Second)
	if got := reject(ids[4:8]); got != "2" {
		t.Errorf("Retry-After at 1 pending × 2s = %q, want \"2\"", got)
	}
}

// TestRetryAfterClamps: the adaptive hint never drops below the header's
// 1s resolution and never parks a client longer than a minute; a shard
// with no history reports the 1s floor.
func TestRetryAfterClamps(t *testing.T) {
	q := newShardQueue(8, 1<<20)
	if got := q.retryAfter(); got != time.Second {
		t.Errorf("retryAfter with no history = %v, want 1s", got)
	}
	q.pending = 2
	q.observeDrainLocked(50 * time.Millisecond)
	if got := q.retryAfter(); got != time.Second {
		t.Errorf("retryAfter below resolution = %v, want clamped to 1s", got)
	}
	q.drainPerJob = time.Hour
	if got := q.retryAfter(); got != time.Minute {
		t.Errorf("retryAfter on a stalled shard = %v, want capped at 1m", got)
	}
}

// TestJobBytesChargeOverhead: tiny windows cannot dodge the byte bound —
// every job carries its fixed bookkeeping charge.
func TestJobBytesChargeOverhead(t *testing.T) {
	j := newJob("f", window(1))
	if j.bytes < jobOverheadBytes+invocationBytes {
		t.Errorf("job bytes %d below overhead %d + one invocation %d",
			j.bytes, jobOverheadBytes, invocationBytes)
	}
}

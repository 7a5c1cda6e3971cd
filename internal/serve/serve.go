// Package serve is the fleet-recommendation daemon: the long-running,
// provider-side deployment the paper's introduction motivates (§1), built
// on top of the sharded recommender.Service. `sizeless serve` wires it to
// the CLI.
//
// The daemon exposes a small HTTP API — ingest monitoring windows, request
// stateless recommendations, inspect per-function or fleet-wide state —
// and adds the three properties a library Service cannot provide on its
// own:
//
//   - Bounded ingest with backpressure. Accepted windows wait in
//     per-shard queues bounded by job depth and pending bytes, aligned
//     with the service's lock shards. A request that would overflow any
//     touched shard is rejected whole with 429 + Retry-After
//     (ErrQueueFull) — the daemon never buffers without limit, so its
//     memory ceiling is configuration, not traffic.
//
//   - Durable fleet state. On a timer and on shutdown the daemon writes a
//     snapshot — model (via core.Model.Save) plus every function's
//     status, baseline, and pending window — and restores it on restart:
//     Fleet output is byte-identical across the restart and drift
//     detection resumes against the restored baselines.
//
//   - Unattended adaptation. A drift quorum watcher closes the §5 loop:
//     when enough of the fleet re-recommends within one observation
//     interval, the daemon fine-tunes the model (Predictor.Adapt with
//     early stopping) on an operator-supplied adaptation dataset and
//     swaps the adapted model into the live service without a restart.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sizeless"
	"sizeless/internal/monitoring"
	"sizeless/internal/pool"
	"sizeless/internal/recommender"
)

// Config tunes the daemon.
type Config struct {
	// Predictor supplies the model, provider pricing, and the Adapt
	// entry point. Required.
	Predictor *sizeless.Predictor
	// ServiceOptions configure the underlying recommender service
	// (WithTradeoff, WithMinWindow, WithShards, WithWorkers).
	ServiceOptions []sizeless.Option
	// Addr is the listen address (default "127.0.0.1:8080"; use ":0" for
	// an ephemeral port).
	Addr string
	// QueueDepth bounds each shard queue's job count, queued plus in
	// flight (default 256).
	QueueDepth int
	// QueueBytes bounds each shard queue's pending window bytes, queued
	// plus in flight (default 4 MiB).
	QueueBytes int64
	// MaxBodyBytes caps a single request body (default 32 MiB).
	MaxBodyBytes int64
	// SnapshotPath enables fleet snapshot/restore: restored on startup if
	// the file exists, written on a timer and on shutdown. Empty disables
	// durability.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence (default 1m;
	// ignored without SnapshotPath).
	SnapshotInterval time.Duration
	// Adapt configures the drift-triggered auto-adaptation loop; the zero
	// value disables it.
	Adapt AdaptConfig
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// shutdownGrace bounds how long shutdown waits for in-flight requests and
// then for queued windows.
const shutdownGrace = 5 * time.Second

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = 4 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the daemon. Build with New, drive with Run; every HTTP
// endpoint and exported method is safe for concurrent use.
type Server struct {
	cfg    Config
	svc    *recommender.Service
	pred   atomic.Pointer[sizeless.Predictor]
	queues []*shardQueue
	mux    *http.ServeMux

	started  atomic.Bool
	ready    chan struct{}
	addr     atomic.Value // string
	startAt  time.Time
	inflight sync.WaitGroup

	// Operational counters, surfaced by /v1/healthz.
	acceptedJobs    atomic.Int64
	rejectedBatches atomic.Int64
	ingestedJobs    atomic.Int64
	ingestErrors    atomic.Int64
	snapshots       atomic.Int64
	adaptations     atomic.Int64
	restored        atomic.Bool

	errMu      sync.Mutex
	lastErrors []string

	snapMu       sync.Mutex
	lastSnapshot atomic.Value // time.Time
}

// New builds a daemon around the predictor. If cfg.SnapshotPath names an
// existing snapshot, the fleet — model included — is restored from it
// before the first request is served; otherwise the daemon starts empty on
// cfg.Predictor's model.
func New(cfg Config) (*Server, error) {
	if cfg.Predictor == nil {
		return nil, errors.New("serve: nil predictor")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Adapt.validate(); err != nil {
		return nil, err
	}

	pred := cfg.Predictor
	var fns []recommender.FunctionSnapshot
	restored := false
	if cfg.SnapshotPath != "" {
		p, f, err := restoreSnapshot(cfg.SnapshotPath, cfg.Predictor)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pred, fns, restored = p, f, true
		}
	}
	svc, err := pred.NewService(cfg.ServiceOptions...)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if restored {
		if err := svc.Import(fns); err != nil {
			return nil, fmt.Errorf("serve: restore %s: %w", cfg.SnapshotPath, err)
		}
	}

	s := &Server{
		cfg:    cfg,
		svc:    svc,
		queues: make([]*shardQueue, svc.NumShards()),
		ready:  make(chan struct{}),
	}
	s.pred.Store(pred)
	s.restored.Store(restored)
	for i := range s.queues {
		s.queues[i] = newShardQueue(cfg.QueueDepth, cfg.QueueBytes)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	if restored {
		cfg.Logf("serve: restored %d functions from %s", len(fns), cfg.SnapshotPath)
	}
	return s, nil
}

// Service exposes the underlying recommender, mainly for tests and
// embedded deployments that mix HTTP and in-process ingestion.
func (s *Server) Service() *recommender.Service { return s.svc }

// Started is closed once the listener is bound; Addr is valid after that.
func (s *Server) Started() <-chan struct{} { return s.ready }

// Addr returns the bound listen address (host:port) once Started.
func (s *Server) Addr() string {
	v, _ := s.addr.Load().(string)
	return v
}

// Drain blocks until every accepted ingest job has been committed (or
// rolled back) by the shard drainers — the quiesce point tests and
// consistent snapshots use.
func (s *Server) Drain() { s.inflight.Wait() }

// Run serves until ctx is cancelled, then shuts down gracefully: the
// listener stops accepting, in-flight requests get 5s (shutdownGrace) to
// finish, queued windows are drained into the service, and — when
// durability is configured — a final snapshot is written. Run returns nil
// on a clean ctx-driven shutdown.
func (s *Server) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("serve: Run called twice")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Serve closes ln itself; this covers a cancel that lands before the
	// pool ever starts the Serve task.
	defer ln.Close()
	s.startAt = time.Now()
	s.addr.Store(ln.Addr().String())
	close(s.ready)
	s.cfg.Logf("serve: listening on %s (%d shards, queue depth %d, queue bytes %d)",
		ln.Addr(), len(s.queues), s.cfg.QueueDepth, s.cfg.QueueBytes)

	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	// The shutdown trigger sits outside the pool: pool.Run skips tasks it
	// has not yet started once ctx is done, and a skipped watcher would
	// leave Serve running forever. After Shutdown, Serve returns at once
	// (or never starts accepting), and Shutdown itself waits for in-flight
	// handlers, so every 202 is enqueued before the final sweep.
	shutdownDone := make(chan struct{})
	stopShutdown := context.AfterFunc(ctx, func() {
		defer close(shutdownDone)
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			s.cfg.Logf("serve: shutdown: %v", err)
		}
	})

	// Every other long-lived goroutine — the HTTP acceptor, one drainer
	// per shard, the snapshot timer, and the adapt loop — rides the
	// bounded pool with one worker per task.
	tasks := []func(context.Context) error{
		func(context.Context) error {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("serve: %w", err)
			}
			return nil
		},
	}
	for i := range s.queues {
		si := i
		tasks = append(tasks, func(ctx context.Context) error {
			s.drainShard(ctx, si)
			return nil
		})
	}
	if s.cfg.SnapshotPath != "" {
		tasks = append(tasks, func(ctx context.Context) error {
			s.snapshotLoop(ctx)
			return nil
		})
	}
	if s.cfg.Adapt.enabled() {
		tasks = append(tasks, func(ctx context.Context) error {
			s.adaptLoop(ctx)
			return nil
		})
	}
	runErr := pool.Run(ctx, len(tasks), len(tasks), func(i int) error { return tasks[i](ctx) })
	if runErr != nil && errors.Is(runErr, ctx.Err()) {
		runErr = nil // a cancelled ctx is the normal way to stop Run
	}
	if !stopShutdown() {
		<-shutdownDone
	}

	// The drainers have exited; sweep any windows that slipped into the
	// queues during the shutdown race, then persist the final state.
	s.sweepQueues(ctx)
	if s.cfg.SnapshotPath != "" {
		if err := s.Snapshot(); err != nil {
			s.cfg.Logf("serve: final snapshot: %v", err)
			if runErr == nil {
				runErr = err
			}
		}
	}
	return runErr
}

// drainShard feeds one shard queue into the service until ctx is
// cancelled. A dequeued window was acknowledged with 202, so it is
// committed even when cancellation races the dequeue; windows still queued
// when the drainer stops are left to sweepQueues.
func (s *Server) drainShard(ctx context.Context, si int) {
	q := s.queues[si]
	jctx := context.WithoutCancel(ctx)
	for {
		select {
		case j := <-q.jobs:
			s.process(jctx, q, j)
		case <-ctx.Done():
			return
		}
	}
}

// sweepQueues ingests, under the shutdown grace, every window still queued
// once the drainers have exited: the backlog at cancellation and any
// request that raced shutdown. Runs single-threaded, after all drainers
// stopped.
func (s *Server) sweepQueues(ctx context.Context) {
	gctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	for _, q := range s.queues {
		for {
			select {
			case j := <-q.jobs:
				s.process(gctx, q, j)
			default:
			}
			if len(q.jobs) == 0 {
				break
			}
		}
	}
}

// process commits one queued window and releases its queue budget.
// Per-function ingest errors are recorded, not fatal: one function's bad
// window must not stall its shard.
func (s *Server) process(ctx context.Context, q *shardQueue, j job) {
	start := time.Now()
	_, err := s.svc.Ingest(ctx, j.fn, j.invs)
	q.release(j, time.Since(start))
	if err != nil {
		s.ingestErrors.Add(1)
		s.recordError(err)
	} else {
		s.ingestedJobs.Add(1)
	}
	s.inflight.Done()
}

// recordError keeps a short ring of recent ingest errors for /v1/healthz.
func (s *Server) recordError(err error) {
	s.errMu.Lock()
	s.lastErrors = append(s.lastErrors, err.Error())
	if len(s.lastErrors) > 8 {
		s.lastErrors = s.lastErrors[len(s.lastErrors)-8:]
	}
	s.errMu.Unlock()
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	windows, err := decodeIngest(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(windows) == 0 {
		writeError(w, http.StatusBadRequest, "no windows in request")
		return
	}
	jobs := make([]job, 0, len(windows))
	invocations := 0
	// Admission validates every window so that a bad one is refused with a
	// 400 naming it, instead of failing later in a drainer. When several
	// windows are bad, the smallest function ID is reported, so the
	// response does not depend on map order.
	badFn, badErr := "", error(nil)
	for fn, invs := range windows {
		if fn == "" {
			writeError(w, http.StatusBadRequest, "empty function ID")
			return
		}
		if err := monitoring.ValidateWindow(invs); err != nil {
			if badErr == nil || fn < badFn {
				badFn, badErr = fn, err
			}
			continue
		}
		if len(invs) == 0 {
			// Queuing a no-op would burn queue depth; and per the
			// recommender's contract an empty ingest must not create
			// state for unknown functions.
			continue
		}
		invocations += len(invs)
		jobs = append(jobs, newJob(fn, invs))
	}
	if badErr != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("function %q: %v", badFn, badErr))
		return
	}
	if err := s.enqueueBatch(jobs); err != nil {
		s.rejectedBatches.Add(1)
		var full *QueueFullError
		switch {
		case errors.As(err, &full):
			delay := s.queues[full.Shard].retryAfter()
			w.Header().Set("Retry-After", strconv.Itoa(int((delay+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrBatchTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.acceptedJobs.Add(int64(len(jobs)))
	var bytes int64
	for _, j := range jobs {
		bytes += j.bytes
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{
		QueuedFunctions:   len(jobs),
		QueuedInvocations: invocations,
		QueuedBytes:       bytes,
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Summaries) == 0 {
		writeError(w, http.StatusBadRequest, "no summaries in request")
		return
	}
	var recs []sizeless.Recommendation
	var err error
	if req.Tradeoff != nil {
		recs, err = s.pred.Load().RecommendBatch(r.Context(), req.Summaries, *req.Tradeoff)
	} else {
		recs, err = s.svc.RecommendBatch(r.Context(), req.Summaries)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, RecommendResponse{Recommendations: recs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("function")
	if fn == "" {
		writeError(w, http.StatusBadRequest, "missing ?function=")
		return
	}
	st, err := s.svc.Status(fn)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, FleetResponse{
		Summary:   s.svc.Summarize(),
		Functions: s.svc.Fleet(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.errMu.Lock()
	lastErrs := append([]string(nil), s.lastErrors...)
	s.errMu.Unlock()
	fp, err := s.pred.Load().Fingerprint()
	if err != nil {
		fp = "error: " + err.Error()
	}
	h := Health{
		Status:           "ok",
		UptimeSeconds:    time.Since(s.startAt).Seconds(),
		Restored:         s.restored.Load(),
		Fleet:            s.svc.Summarize(),
		Queues:           s.queueStatuses(),
		AcceptedJobs:     s.acceptedJobs.Load(),
		RejectedBatches:  s.rejectedBatches.Load(),
		IngestedJobs:     s.ingestedJobs.Load(),
		IngestErrors:     s.ingestErrors.Load(),
		Snapshots:        s.snapshots.Load(),
		Adaptations:      s.adaptations.Load(),
		ModelFingerprint: fp,
		LastErrors:       lastErrs,
	}
	if t, ok := s.lastSnapshot.Load().(time.Time); ok {
		h.LastSnapshotUnix = t.Unix()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeError(w, http.StatusConflict, "snapshotting disabled: no snapshot path configured")
		return
	}
	if err := s.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"snapshot": s.cfg.SnapshotPath})
}

// snapshotLoop writes periodic snapshots until ctx is cancelled; the final
// shutdown snapshot is Run's responsibility (it must wait for the
// drainers).
func (s *Server) snapshotLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				s.cfg.Logf("serve: periodic snapshot: %v", err)
				s.recordError(err)
			}
		}
	}
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request object")
		}
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 once it passed MaxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client went away; nothing useful to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

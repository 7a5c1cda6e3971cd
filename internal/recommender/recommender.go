// Package recommender operationalizes Sizeless as a continuously running,
// provider-side service — the deployment the paper's introduction motivates
// ("it enables cloud providers to implement resource sizing on a platform
// level", §1, and the workload-shift handling sketched in §5).
//
// A Service tracks many functions. For each it ingests monitoring windows
// (batches of invocations at the function's current memory size), issues an
// initial recommendation once enough data accumulated, and afterwards only
// re-recommends when the workload's resource profile actually drifts —
// avoiding recommendation churn on noisy but stationary traffic.
//
// # Concurrency model
//
// The service is built for fleet-scale concurrent ingestion. Per-function
// state is partitioned across Config.Shards independently locked shards
// (FNV-1a hash of the function ID), so Ingest calls for functions on
// different shards never contend; ingests for the same function serialize
// on its shard. IngestBatch locks the shard of every function in its
// batch, in ascending shard index, and holds them all for the whole call
// while its phases fan out over a bounded worker pool (Config.Workers):
// every ingest and reader on those shards waits for the whole batch,
// predictions and optimizations included. Ingest holds its one shard,
// and the readers take one shard at a time, so no two callers ever wait
// on each other in a cycle. Every exported method — Ingest, IngestBatch,
// Status, Fleet, Summarize, RecommendBatch — is safe to call concurrently
// with every other.
//
// An ingest commits atomically: either the window is fully absorbed (and
// any triggered recomputation applied), or — on error, including context
// cancellation observed before a recomputation — the function's state is
// exactly what it was before the call.
package recommender

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sizeless/internal/core"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
)

// Config tunes the service.
type Config struct {
	// Tradeoff is the §3.5 t parameter. nil means the default 0.75, the
	// paper's recommended balanced setting; a non-nil 0 is pure
	// performance.
	Tradeoff *float64
	// MinWindow is the minimum number of invocations before the first
	// recommendation (default 100 — ~10 minutes at modest traffic, the
	// §3.3 stability horizon). A non-zero MinWindow must be at least
	// monitoring.MinDriftSamples: a first recommendation from a smaller
	// window leaves a baseline the drift detector always rejects.
	MinWindow int
	// Pricing is the billing model used for cost scoring (default: the
	// AWS-Lambda-like platform.DefaultPricing).
	Pricing platform.Pricer
	// Workers bounds batch-API parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards is the number of independently locked shards per-function
	// state is partitioned across (default 32). More shards mean less
	// lock contention under concurrent ingestion; one shard restores the
	// old single-lock behaviour.
	Shards int
}

func (c Config) withDefaults() Config {
	// Copy the tradeoff so the caller's variable cannot change it later.
	t := 0.75
	if c.Tradeoff != nil {
		t = *c.Tradeoff
	}
	c.Tradeoff = &t
	if c.MinWindow <= 0 {
		c.MinWindow = 100
	}
	if c.Pricing == nil {
		c.Pricing = platform.DefaultPricing()
	}
	if c.Shards <= 0 {
		c.Shards = 32
	}
	return c
}

// validate rejects configurations that could only fail later, at the first
// recomputation or drift check. An out-of-range tradeoff passes
// construction and every sub-MinWindow ingest, then fails inside
// optimizer.Optimize once a window is large enough — and because the failed
// ingest rolls back, every subsequent ingest replays the same doomed
// recompute, permanently poisoning the function. A MinWindow below the
// drift detector's sample minimum does the same one step later: the first
// recommendation keeps a baseline every drift check rejects. Failing at
// New turns that runtime poison into a construction-time error.
func (c Config) validate() error {
	if t := c.Tradeoff; t != nil && !(*t >= 0 && *t <= 1) { // also rejects NaN
		return fmt.Errorf("recommender: tradeoff %v outside [0,1]", *t)
	}
	if c.Workers < 0 {
		return fmt.Errorf("recommender: negative worker count %d", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("recommender: negative shard count %d", c.Shards)
	}
	if c.MinWindow < 0 {
		return fmt.Errorf("recommender: negative min window %d", c.MinWindow)
	}
	if c.MinWindow > 0 && c.MinWindow < monitoring.MinDriftSamples {
		return fmt.Errorf("recommender: min window %d below the drift detector's %d-sample minimum",
			c.MinWindow, monitoring.MinDriftSamples)
	}
	return nil
}

// Status describes one tracked function's recommendation state.
type Status struct {
	// FunctionID identifies the function.
	FunctionID string
	// Observed is the total number of ingested invocations.
	Observed int
	// HasRecommendation reports whether a recommendation exists yet.
	HasRecommendation bool
	// Recommendation is the latest §3.5 output (valid when
	// HasRecommendation).
	Recommendation optimizer.Recommendation
	// Recomputations counts how many times drift forced a refresh.
	Recomputations int
	// LastDrift lists the metrics whose shift triggered the most recent
	// recomputation (empty for the initial recommendation).
	LastDrift []monitoring.MetricShift
}

// functionState is the per-function tracking record.
type functionState struct {
	status   Status
	baseline []monitoring.Invocation // window behind the current recommendation
	pending  []monitoring.Invocation // window accumulating since then
	// pendingOwned marks pending as service-owned storage. A whole window
	// adopted zero-copy from the caller is not owned and must never be
	// written through; accumulation copies it into owned storage first.
	pendingOwned bool
	// baselinePrep caches the baseline window's per-metric sorted ranks so
	// repeated drift checks on a stationary workload stop re-sorting the
	// unchanged baseline. Built lazily on the first drift check, dropped
	// when a recomputation promotes a new baseline. Pure derived data:
	// rollback never needs to restore it.
	baselinePrep *monitoring.PreparedBaseline
}

// shard is one independently locked partition of the fleet.
type shard struct {
	mu  sync.Mutex
	fns map[string]*functionState
}

// Service is the continuous recommender. Safe for concurrent use; see the
// package comment for the sharding and atomicity guarantees.
type Service struct {
	cfg Config
	// model is swappable at runtime (see SwapModel): recomputations load
	// it once per recompute, so an adapted model takes effect at the next
	// drift-triggered refresh without stalling ingestion.
	model  atomic.Pointer[core.Model]
	shards []shard

	// orderMu guards the first-seen ordering used by Fleet. Lock order:
	// a shard's mu may be held when taking orderMu, never the reverse.
	orderMu sync.Mutex
	order   []string
}

// New creates a Service over a trained model. Ingested windows must be
// collected at the model's base memory size. The configuration is validated
// up front — an out-of-range tradeoff, a MinWindow below the drift
// detector's minimum, or a negative shard/worker count is rejected here
// rather than surfacing at the first recomputation or drift check.
func New(model *core.Model, cfg Config) (*Service, error) {
	if model == nil {
		return nil, errors.New("recommender: nil model")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		shards: make([]shard, cfg.Shards),
	}
	s.model.Store(model)
	for i := range s.shards {
		s.shards[i].fns = make(map[string]*functionState)
	}
	return s, nil
}

// SwapModel atomically replaces the prediction model behind future
// recomputations and RecommendBatch calls — the hook the serve daemon's
// auto-adapt loop uses to put an adapted model into service without
// restarting or losing per-function state. Tracked baselines and pending
// windows are untouched; each function picks the new model up at its next
// drift-triggered (or initial) recomputation.
//
// The replacement must be trained at the same base size and predict the
// same memory grid, so ingested windows and existing recommendations stay
// comparable across the swap.
func (s *Service) SwapModel(m *core.Model) error {
	if m == nil {
		return errors.New("recommender: swap: nil model")
	}
	old := s.model.Load()
	if got, want := m.Config().Base, old.Config().Base; got != want {
		return fmt.Errorf("recommender: swap: model base %v != service base %v", got, want)
	}
	if got, want := m.Targets(), old.Targets(); !equalSizes(got, want) {
		return fmt.Errorf("recommender: swap: model grid %v != service grid %v", got, want)
	}
	s.model.Store(m)
	return nil
}

// Model returns the model behind recomputations and RecommendBatch right
// now: the one New stored or the last SwapModel put live.
func (s *Service) Model() *core.Model { return s.model.Load() }

func equalSizes(a, b []platform.MemorySize) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumShards returns the number of state shards the fleet is partitioned
// across.
func (s *Service) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index a function's state lives on — the hook
// the serve daemon uses to align its bounded ingest queues with the
// service's lock partitioning, so queue backpressure and lock contention
// shed load along the same boundary.
func (s *Service) ShardFor(functionID string) int { return s.shardIndex(functionID) }

// shardIndex maps a function ID onto its shard with a 32-bit FNV-1a hash —
// deterministic across processes, so an operator can reason about which
// shard a function lands on.
func (s *Service) shardIndex(functionID string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(functionID); i++ {
		h ^= uint32(functionID[i])
		h *= prime32
	}
	return int(h % uint32(len(s.shards)))
}

// Ingest feeds a batch of monitored invocations for one function and
// returns the function's (possibly updated) status.
//
// Behaviour:
//   - Before MinWindow invocations accumulate: data is buffered.
//   - At MinWindow: the initial recommendation is computed.
//   - Afterwards: once the pending window is large enough, it is compared
//     against the baseline window with the drift detector; only a detected
//     shift triggers a recomputation (on the new window), which then
//     becomes the baseline.
//
// Ingest takes ownership of invs: the hot path adopts the caller's slice
// without copying, so the caller must not modify it after the call. It is
// never written through by the service, so the same backing data may be
// ingested for several functions.
//
// Ingest is atomic per function: on any error — including ctx cancellation
// observed before a triggered recomputation — the function's tracked state
// is left exactly as it was, so a cut-off recompute never commits a
// half-updated window. A window that fails monitoring.ValidateWindow is
// rejected before it is buffered: a bad invocation left in the pending
// window would fail every later recomputation of the function.
//
// Ingest runs the staged steps of IngestBatch for one function.
func (s *Service) Ingest(ctx context.Context, functionID string, invs []monitoring.Invocation) (Status, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sh := &s.shards[s.shardIndex(functionID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ings := [1]ingestion{{id: functionID, invs: invs, sh: sh}}
	ing := &ings[0]
	s.stageLocked(ctx, ing)
	s.recomputeLocked(ctx, ings[:])
	if s.commitLocked(ing) {
		s.orderMu.Lock()
		s.order = append(s.order, functionID)
		s.orderMu.Unlock()
	}
	return ing.status, ing.err
}

// ingestion is one function's window on its way through the staged
// steps: stageLocked buffers it and decides what it triggers,
// recomputeLocked prices the recomputations, and commitLocked applies
// the outcome to the function's state or leaves that state untouched.
type ingestion struct {
	id   string
	invs []monitoring.Invocation
	sh   *shard

	st      *functionState // nil: an empty window for an unknown function
	created bool           // st is new and not yet in sh.fns
	pending []monitoring.Invocation
	owned   bool // pending is service-owned storage (see functionState)

	outcome outcome
	shifted []monitoring.MetricShift
	summary monitoring.Summary // the window's, when the outcome recomputes
	rec     optimizer.Recommendation

	err    error
	status Status // the function's status after commitLocked
}

// outcome is what an ingested window does to its function.
type outcome int

// recomputes reports whether the staged ingestion still needs its
// recommendation priced.
func (ing *ingestion) recomputes() bool { return ing.err == nil && ing.outcome >= initial }

// The outcomes from initial on recompute the recommendation.
const (
	buffered   outcome = iota // below MinWindow: keep accumulating
	stationary                // no drift: discard the window, keep the baseline
	initial                   // first recommendation
	drifted                   // drift: recompute on the window, which becomes the baseline
)

// stageLocked checks and buffers one window and runs the drift state
// machine on it, without changing the function's state: the window it
// would leave pending and the outcome are kept in ing, and a
// recomputation's summary is taken. The caller holds the function's shard
// lock; stageLocked reads the shard's map but never writes it, so
// functions of one shard may be staged concurrently.
func (s *Service) stageLocked(ctx context.Context, ing *ingestion) {
	if ing.id == "" {
		ing.err = errors.New("recommender: empty function ID")
		return
	}
	if err := ctx.Err(); err != nil {
		ing.err = fmt.Errorf("recommender: %w", err)
		return
	}
	if err := monitoring.ValidateWindow(ing.invs); err != nil {
		ing.err = fmt.Errorf("recommender: %s: %w", ing.id, err)
		return
	}
	st, ok := ing.sh.fns[ing.id]
	if !ok && len(ing.invs) == 0 {
		// An empty ingest for an unknown function must not create state:
		// registering here would leak an Observed: 0 phantom record into
		// Fleet, Summarize, and the first-seen order.
		return
	}
	if !ok {
		st = &functionState{status: Status{FunctionID: ing.id}}
		ing.created = true
	}
	ing.st = st
	switch invs := ing.invs; {
	case len(invs) == 0:
		ing.pending, ing.owned = st.pending, st.pendingOwned
	case len(st.pending) == 0:
		// Zero-copy fast path: adopt the caller's window. The common
		// fleet case delivers whole windows, which are consumed (or
		// discarded) before anything is ever appended to them.
		ing.pending, ing.owned = invs, false
	case !st.pendingOwned:
		// Accumulating onto an adopted window: copy it into
		// service-owned storage first so the caller's data is never
		// written through.
		buf := make([]monitoring.Invocation, 0, len(st.pending)+len(invs))
		buf = append(buf, st.pending...)
		ing.pending, ing.owned = append(buf, invs...), true
	default:
		// Appends write only past st.pending's length, so the state's
		// own window is intact until commit.
		ing.pending, ing.owned = append(st.pending, invs...), true
	}

	switch {
	case len(ing.pending) < s.cfg.MinWindow:
		ing.outcome = buffered
		return
	case !st.status.HasRecommendation:
		ing.outcome = initial
	default:
		if st.baselinePrep == nil {
			st.baselinePrep = monitoring.PrepareBaseline(st.baseline, monitoring.DriftDetectorConfig{})
		}
		report, err := monitoring.DetectDriftAgainst(st.baselinePrep, ing.pending, monitoring.DriftDetectorConfig{})
		if err != nil {
			ing.err = fmt.Errorf("recommender: %s: %w", ing.id, err)
			return
		}
		if !report.Drifted() {
			ing.outcome = stationary
			return
		}
		ing.outcome, ing.shifted = drifted, report.Shifted
	}
	summary, err := monitoring.Summarize(ing.pending)
	if err == nil {
		err = core.CheckSummary(summary)
	}
	if err != nil {
		ing.err = fmt.Errorf("recommender: %s: %w", ing.id, err)
		return
	}
	ing.summary = summary
}

// recomputeLocked prices every staged recomputation in ings: one
// PredictBatch over their summaries, then one Optimize each, both spread
// over the service's workers. PredictBatch equals Predict bit for bit, so
// a function's recommendation does not depend on what it was batched
// with. The caller holds the shard lock of every function in ings.
func (s *Service) recomputeLocked(ctx context.Context, ings []ingestion) {
	n := 0
	for i := range ings {
		if ings[i].recomputes() {
			n++
		}
	}
	if n == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for i := range ings {
			if ings[i].recomputes() {
				ings[i].err = fmt.Errorf("recommender: %s: recompute cancelled: %w", ings[i].id, err)
			}
		}
		return
	}
	// The jobs write their own pricing, not ings, so a caller's ings can
	// stay on its stack.
	type pricing struct {
		i       int // the ingestion's index in ings
		rec     optimizer.Recommendation
		err     error
		started bool
	}
	jobs := make([]pricing, 0, n)
	sums := make([]monitoring.Summary, 0, n)
	for i := range ings {
		if ings[i].recomputes() {
			jobs = append(jobs, pricing{i: i})
			sums = append(sums, ings[i].summary)
		}
	}
	times, err := s.model.Load().PredictBatch(ctx, sums, s.cfg.Workers)
	if err == nil {
		err = pool.Run(ctx, n, s.cfg.Workers, func(k int) error {
			j := &jobs[k]
			j.started = true
			j.rec, j.err = optimizer.Optimize(times[k], s.cfg.Pricing, *s.cfg.Tradeoff)
			return nil
		})
		// Only a cancelled ctx stops the pool: the jobs it never started
		// are recomputations cut off.
		if err != nil {
			err = fmt.Errorf("recompute cancelled: %w", err)
		}
	}
	for _, j := range jobs {
		if !j.started { // PredictBatch failed, or ctx stopped the pool first
			j.err = err
		}
		if j.err != nil {
			ings[j.i].err = fmt.Errorf("recommender: %s: %w", ings[j.i].id, j.err)
		}
		ings[j.i].rec = j.rec
	}
}

// commitLocked applies a staged ingestion to its function's state, or, if
// any step failed, leaves that state exactly as it was (a function this
// ingestion would have created is never registered). It records the
// function's status in ing and reports whether the function is new, so
// the caller can append it to the first-seen order. The caller holds the
// function's shard lock, and no other goroutine works on its shard.
func (s *Service) commitLocked(ing *ingestion) (created bool) {
	st := ing.st
	if ing.err != nil {
		return false
	}
	if st == nil {
		ing.status = Status{FunctionID: ing.id}
		return false
	}
	st.status.Observed += len(ing.invs)
	st.pending, st.pendingOwned = ing.pending, ing.owned
	switch ing.outcome {
	case stationary:
		// Discard the pending window, keep the baseline. (An empty
		// pending always re-enters through the zero-copy adopt branch, so
		// there is no point keeping owned storage around.)
		st.pending, st.pendingOwned = nil, false
	case initial, drifted:
		st.status.HasRecommendation = true
		st.status.Recommendation = ing.rec
		st.status.LastDrift = ing.shifted
		st.baseline = st.pending
		st.baselinePrep = nil // new baseline: sorted ranks rebuilt on next check
		st.pending, st.pendingOwned = nil, false
		if ing.outcome == drifted {
			st.status.Recomputations++
		}
	}
	if ing.created {
		ing.sh.fns[ing.id] = st
	}
	ing.status = st.status
	return ing.created
}

// Status returns the tracked state of one function.
func (s *Service) Status(functionID string) (Status, error) {
	sh := &s.shards[s.shardIndex(functionID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.fns[functionID]
	if !ok {
		return Status{}, fmt.Errorf("recommender: unknown function %q", functionID)
	}
	return st.status, nil
}

// Fleet returns the status of every tracked function, in first-seen order.
// It snapshots shard by shard — each shard's lock is taken exactly once
// and all of its functions copied in bulk — so a fleet-wide listing costs
// NumShards lock acquisitions instead of one per function, and concurrent
// ingestion is never stalled for longer than one shard copy.
func (s *Service) Fleet() []Status {
	s.orderMu.Lock()
	ids := append([]string(nil), s.order...)
	s.orderMu.Unlock()
	snap := make(map[string]Status, len(ids))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, st := range sh.fns {
			snap[id] = st.status
		}
		sh.mu.Unlock()
	}
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, ok := snap[id]; ok {
			out = append(out, st)
		}
	}
	return out
}

// Summary aggregates fleet-wide statistics for operator dashboards.
type FleetSummary struct {
	Functions         int
	WithRecommend     int
	OffBaseSelections int
	Recomputations    int
}

// Summarize reduces the fleet to headline numbers, locking one shard at a
// time so a fleet-wide summary never stalls concurrent ingestion for long.
func (s *Service) Summarize() FleetSummary {
	var out FleetSummary
	base := s.model.Load().Config().Base
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Functions += len(sh.fns)
		for _, st := range sh.fns {
			if st.status.HasRecommendation {
				out.WithRecommend++
				if st.status.Recommendation.Best != base {
					out.OffBaseSelections++
				}
			}
			out.Recomputations += st.status.Recomputations
		}
		sh.mu.Unlock()
	}
	return out
}

// IngestBatch feeds monitoring windows for many functions — the
// fleet-scale hot path — in three phases. First every function's window
// is checked, buffered, drift-checked and, if it triggers a
// recomputation, summarized, all in parallel over a worker pool bounded
// by Config.Workers (0 = GOMAXPROCS). Then every recomputation is priced
// at once: one PredictBatch over their summaries and one Optimize each,
// in parallel chunks. Last, each function's outcome is committed, or
// rolled back if a step failed, in sorted-ID order. For the whole call
// IngestBatch holds the shard lock of every function in the batch (see
// the package comment). Each function ends as Ingest would leave it.
//
// The returned map holds the status of every successfully ingested
// function. A per-function error does not stop the rest of the batch; the
// error for the first function (in sorted-ID order) that failed is
// returned. Cancelling ctx applies backpressure: the pool stops picking up
// new functions, already-ingested functions keep their committed state, and
// functions whose recompute was cut off are rolled back — the batch then
// returns what was processed along with the context's error.
func (s *Service) IngestBatch(ctx context.Context, batch map[string][]monitoring.Invocation) (map[string]Status, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ids := make([]string, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make(map[string]Status, len(ids))
	if len(ids) == 0 {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("recommender: batch ingest cancelled: %w", err)
		}
		return out, nil
	}

	ings := make([]ingestion, len(ids))
	held := make([]int, 0, len(ids))
	for i, id := range ids {
		k := s.shardIndex(id)
		ings[i] = ingestion{id: id, invs: batch[id], sh: &s.shards[k]}
		held = append(held, k)
	}
	sort.Ints(held)
	held = slices.Compact(held)
	for _, k := range held {
		s.shards[k].mu.Lock()
	}
	defer func() {
		for _, k := range held {
			s.shards[k].mu.Unlock()
		}
	}()

	// Phase 1. Functions claim jobs in sorted-ID order; one the pool
	// never starts, because ctx was cancelled, fails with the context's
	// error and changes nothing.
	reached := make([]bool, len(ings))
	if err := pool.Run(ctx, len(ings), s.cfg.Workers, func(i int) error {
		reached[i] = true
		s.stageLocked(ctx, &ings[i])
		return nil
	}); err != nil {
		for i := range ings {
			if !reached[i] {
				ings[i].err = err
			}
		}
	}
	// Phase 2.
	s.recomputeLocked(ctx, ings)
	// Phase 3.
	var created []string
	var err error
	for i := range ings {
		ing := &ings[i]
		if s.commitLocked(ing) {
			created = append(created, ing.id)
		}
		if ing.err != nil {
			if err == nil {
				err = ing.err
			}
			continue
		}
		out[ing.id] = ing.status
	}
	if len(created) > 0 {
		s.orderMu.Lock()
		s.order = append(s.order, created...)
		s.orderMu.Unlock()
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			// Wrap the function's own error, not the bare ctx.Err(): a
			// cut-off recompute's error names the function it interrupted,
			// and that context must survive into the %w chain.
			err = fmt.Errorf("recommender: batch ingest cancelled: %w", err)
		}
		return out, err
	}
	return out, nil
}

// RecommendBatch is the stateless fleet-scale path: it scores many
// monitoring summaries (all collected at the service's base size) in one
// shot, amortizing feature extraction through the model's pooled buffers
// and running the forward passes concurrently. Results align positionally
// with summaries. Unlike Ingest it does not touch per-function tracking
// state.
func (s *Service) RecommendBatch(ctx context.Context, summaries []monitoring.Summary) ([]optimizer.Recommendation, error) {
	times, err := s.model.Load().PredictBatch(ctx, summaries, s.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("recommender: %w", err)
	}
	out := make([]optimizer.Recommendation, len(times))
	for i, t := range times {
		rec, err := optimizer.Optimize(t, s.cfg.Pricing, *s.cfg.Tradeoff)
		if err != nil {
			return nil, fmt.Errorf("recommender: summary %d: %w", i, err)
		}
		out[i] = rec
	}
	return out, nil
}

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
// (FNV-1a hash of the function ID), so ingests for different functions
// almost never contend; ingests for the same function serialize on its
// shard. IngestBatch fans the batch out over a bounded worker pool
// (Config.Workers). Every exported method — Ingest, IngestBatch, Status,
// Fleet, Summarize, RecommendBatch — is safe to call concurrently with
// every other.
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
func (s *Service) Ingest(ctx context.Context, functionID string, invs []monitoring.Invocation) (Status, error) {
	if functionID == "" {
		return Status{}, errors.New("recommender: empty function ID")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Status{}, fmt.Errorf("recommender: %w", err)
	}
	if err := monitoring.ValidateWindow(invs); err != nil {
		return Status{}, fmt.Errorf("recommender: %s: %w", functionID, err)
	}
	sh := &s.shards[s.shardIndex(functionID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	st, ok := sh.fns[functionID]
	if !ok && len(invs) == 0 {
		// An empty ingest for an unknown function must not create state:
		// registering here would leak an Observed: 0 phantom record into
		// Fleet, Summarize, and the first-seen order.
		return Status{FunctionID: functionID}, nil
	}
	created := false
	if !ok {
		st = &functionState{status: Status{FunctionID: functionID}}
		sh.fns[functionID] = st
		created = true
	}
	prevObserved := st.status.Observed
	prevPending := st.pending
	prevOwned := st.pendingOwned
	st.status.Observed += len(invs)
	switch {
	case len(invs) == 0:
		// Nothing to buffer.
	case len(st.pending) == 0:
		// Zero-copy fast path: adopt the caller's window. The common
		// fleet case delivers whole windows, which are consumed (or
		// discarded) before anything is ever appended to them.
		st.pending = invs
		st.pendingOwned = false
	case !st.pendingOwned:
		// Accumulating onto an adopted window: copy it into
		// service-owned storage first so the caller's data is never
		// written through.
		buf := make([]monitoring.Invocation, 0, len(st.pending)+len(invs))
		buf = append(buf, st.pending...)
		buf = append(buf, invs...)
		st.pending = buf
		st.pendingOwned = true
	default:
		st.pending = append(st.pending, invs...)
	}

	if err := s.advanceLocked(ctx, st); err != nil {
		// Roll back: an ingest commits completely or not at all. The
		// saved slice header restores the pre-call window (appends only
		// wrote past its length, or into fresh storage), and a function
		// created by this very call is removed again so no empty record
		// leaks into the fleet.
		st.status.Observed = prevObserved
		st.pending = prevPending
		st.pendingOwned = prevOwned
		if created {
			delete(sh.fns, functionID)
		}
		return Status{}, err
	}
	if created {
		s.orderMu.Lock()
		s.order = append(s.order, functionID)
		s.orderMu.Unlock()
	}
	return st.status, nil
}

// advanceLocked runs the buffered→recommend→drift state machine for one
// function. The caller holds the function's shard lock and rolls the state
// back on error.
func (s *Service) advanceLocked(ctx context.Context, st *functionState) error {
	if len(st.pending) < s.cfg.MinWindow {
		return nil
	}
	if !st.status.HasRecommendation {
		return s.recomputeLocked(ctx, st, nil)
	}
	if st.baselinePrep == nil {
		st.baselinePrep = monitoring.PrepareBaseline(st.baseline, monitoring.DriftDetectorConfig{})
	}
	report, err := monitoring.DetectDriftAgainst(st.baselinePrep, st.pending, monitoring.DriftDetectorConfig{})
	if err != nil {
		return fmt.Errorf("recommender: %s: %w", st.status.FunctionID, err)
	}
	if !report.Drifted() {
		// Stationary: discard the pending window, keep the baseline. (An
		// empty pending always re-enters through the zero-copy adopt
		// branch, so there is no point keeping owned storage around.)
		st.pending = nil
		st.pendingOwned = false
		return nil
	}
	if err := s.recomputeLocked(ctx, st, report.Shifted); err != nil {
		return err
	}
	st.status.Recomputations++
	return nil
}

// recomputeLocked refreshes the recommendation from st.pending and promotes
// it to the new baseline. The caller holds the shard lock. All mutations
// happen after the last fallible step, so a failed (or cancelled)
// recomputation leaves the state untouched for the caller's rollback.
func (s *Service) recomputeLocked(ctx context.Context, st *functionState, shifted []monitoring.MetricShift) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("recommender: %s: recompute cancelled: %w", st.status.FunctionID, err)
	}
	summary, err := monitoring.Summarize(st.pending)
	if err != nil {
		return fmt.Errorf("recommender: %s: %w", st.status.FunctionID, err)
	}
	times, err := s.model.Load().Predict(summary)
	if err != nil {
		return fmt.Errorf("recommender: %s: %w", st.status.FunctionID, err)
	}
	rec, err := optimizer.Optimize(times, s.cfg.Pricing, *s.cfg.Tradeoff)
	if err != nil {
		return fmt.Errorf("recommender: %s: %w", st.status.FunctionID, err)
	}
	st.status.HasRecommendation = true
	st.status.Recommendation = rec
	st.status.LastDrift = shifted
	st.baseline = st.pending
	st.baselinePrep = nil // new baseline: sorted ranks rebuilt on next check
	st.pending = nil
	st.pendingOwned = false
	return nil
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

// IngestBatch feeds monitoring windows for many functions concurrently —
// the fleet-scale hot path. Functions fan out over a worker pool bounded by
// Config.Workers (0 = GOMAXPROCS); each function's ingest runs under its
// own shard lock, so the drift detector and any recomputation execute in
// parallel across functions.
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

	// Fan out over the shared bounded pool: per-function ingests claim
	// sorted IDs in index order, so pool.Run's lowest-index-error contract
	// is exactly the "first function in sorted-ID order" guarantee above.
	var mu sync.Mutex
	err := pool.Run(ctx, len(ids), s.cfg.Workers, func(i int) error {
		id := ids[i]
		st, err := s.Ingest(ctx, id, batch[id])
		if err != nil {
			return err
		}
		mu.Lock()
		out[id] = st
		mu.Unlock()
		return nil
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			// Wrap the job's own error, not the bare ctx.Err(): a cut-off
			// recompute's error names the function it interrupted, and that
			// context must survive into the %w chain.
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

package recommender

import (
	"errors"
	"fmt"

	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
)

// FunctionSnapshot is the durable form of one tracked function: its status
// plus the raw baseline and pending windows. Together with the model (which
// serializes separately via core.Model.Save) this is everything a restarted
// service needs to resume exactly where it left off — Fleet output,
// drift detection against the restored baseline, and MinWindow accounting
// all continue as if the process had never died. The cached baseline ranks
// (PreparedBaseline) are deliberately absent: they are pure derived data,
// rebuilt lazily from the baseline on the first post-restore drift check.
type FunctionSnapshot struct {
	Status   Status                  `json:"status"`
	Baseline []monitoring.Invocation `json:"baseline,omitempty"`
	Pending  []monitoring.Invocation `json:"pending,omitempty"`
}

// Export snapshots every tracked function in first-seen order. Windows are
// deep-copied under each function's shard lock, so the result is safe to
// serialize while ingestion continues; like Fleet, consistency is
// per-function (each record is an atomic cut of that function's state),
// not cross-fleet.
func (s *Service) Export() []FunctionSnapshot {
	s.orderMu.Lock()
	ids := append([]string(nil), s.order...)
	s.orderMu.Unlock()
	out := make([]FunctionSnapshot, 0, len(ids))
	for _, id := range ids {
		sh := &s.shards[s.shardIndex(id)]
		sh.mu.Lock()
		st, ok := sh.fns[id]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		snap := FunctionSnapshot{Status: st.status}
		snap.Status.LastDrift = append([]monitoring.MetricShift(nil), st.status.LastDrift...)
		snap.Status.Recommendation.Options = append([]optimizer.Option(nil), st.status.Recommendation.Options...)
		if len(st.baseline) > 0 {
			snap.Baseline = append([]monitoring.Invocation(nil), st.baseline...)
		}
		if len(st.pending) > 0 {
			snap.Pending = append([]monitoring.Invocation(nil), st.pending...)
		}
		sh.mu.Unlock()
		out = append(out, snap)
	}
	return out
}

// Import rebuilds per-function state from an Export, in order — the restore
// half of the serve daemon's snapshot cycle. It may only be called on a
// service that is not tracking anything yet: restoring over live state
// would silently merge two fleets. Every baseline and pending window must
// pass monitoring.ValidateWindow, exactly as an ingested one would, and
// nothing is imported unless every function passes.
//
// The imported service reproduces the exported one exactly: Fleet returns
// byte-identical statuses in the same first-seen order, and the next drift
// check for each function runs against the restored baseline just as it
// would have against the original.
func (s *Service) Import(fns []FunctionSnapshot) error {
	s.orderMu.Lock()
	defer s.orderMu.Unlock()
	if len(s.order) != 0 {
		return errors.New("recommender: import into non-empty service")
	}
	seen := make(map[string]bool, len(fns))
	for i, fn := range fns {
		id := fn.Status.FunctionID
		if id == "" {
			return fmt.Errorf("recommender: import: function %d: empty function ID", i)
		}
		if seen[id] {
			return fmt.Errorf("recommender: import: duplicate function %q", id)
		}
		seen[id] = true
		if fn.Status.HasRecommendation && len(fn.Baseline) == 0 {
			return fmt.Errorf("recommender: import: %s: recommendation without a baseline window", id)
		}
		if err := monitoring.ValidateWindow(fn.Baseline); err != nil {
			return fmt.Errorf("recommender: import: %s: baseline: %w", id, err)
		}
		if err := monitoring.ValidateWindow(fn.Pending); err != nil {
			return fmt.Errorf("recommender: import: %s: pending: %w", id, err)
		}
	}
	for _, fn := range fns {
		st := &functionState{
			status: fn.Status,
			// The snapshot's slices become service-owned storage; nothing
			// else aliases them, so later accumulation may append in place.
			baseline:     fn.Baseline,
			pending:      fn.Pending,
			pendingOwned: true,
		}
		sh := &s.shards[s.shardIndex(fn.Status.FunctionID)]
		sh.mu.Lock()
		sh.fns[fn.Status.FunctionID] = st
		sh.mu.Unlock()
		s.order = append(s.order, fn.Status.FunctionID)
	}
	return nil
}

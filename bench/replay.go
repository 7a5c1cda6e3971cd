package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sizeless"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/recommender"
	"sizeless/internal/serve"
)

// defaultTradeoff is the recommender service's default t, the paper's
// recommended setting; the workloads leave it unset.
const defaultTradeoff = 0.75

// decomposer repeats the recommender's per-function ingest decisions one
// public layer call at a time — drift check, Summarize, Predict, Optimize —
// so a traced replay can time each layer on exactly the work Service.Ingest
// did. It handles whole windows of at least the service's MinWindow, which
// is what every workload sends.
type decomposer struct {
	pred    *sizeless.Predictor
	pricing platform.Pricer
	drift   monitoring.DriftDetectorConfig // the service default
	fns     map[string]*decompState

	checks, recomputes, changed int
}

type decompState struct {
	hasRec     bool
	best       platform.MemorySize
	baseline   []monitoring.Invocation
	prep       *monitoring.PreparedBaseline
	recomputes int
}

func newDecomposer(pred *sizeless.Predictor) *decomposer {
	return &decomposer{
		pred:    pred,
		pricing: pred.Provider().Platform().Pricing,
		fns:     make(map[string]*decompState),
	}
}

// resetCounts zeroes the fleet-wide counters, so they cover only the
// windows fed afterwards.
func (d *decomposer) resetCounts() { d.checks, d.recomputes, d.changed = 0, 0, 0 }

// window ingests one whole window: the first one recommends, later ones
// are drift-checked against the baseline and recompute only on drift.
func (d *decomposer) window(tr *tracer, parent spanRef, fn string, w []monitoring.Invocation) error {
	st := d.fns[fn]
	if st == nil {
		st = &decompState{}
		d.fns[fn] = st
	}
	if st.hasRec {
		sp := tr.begin("monitoring.drift", parent)
		if st.prep == nil {
			st.prep = monitoring.PrepareBaseline(st.baseline, d.drift)
		}
		rep, err := monitoring.DetectDriftAgainst(st.prep, w, d.drift)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: drift: %w", fn, err)
		}
		d.checks++
		if !rep.Drifted() {
			return nil
		}
	}
	sp := tr.begin("monitoring.summarize", parent)
	sum, err := monitoring.Summarize(w)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: summarize: %w", fn, err)
	}
	sp = tr.begin("core.predict", parent)
	times, err := d.pred.Predict(sum)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: predict: %w", fn, err)
	}
	sp = tr.begin("optimizer.optimize", parent)
	rec, err := optimizer.Optimize(times, d.pricing, defaultTradeoff)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", fn, err)
	}
	if st.hasRec {
		d.recomputes++
		st.recomputes++
		if rec.Best != st.best {
			d.changed++
		}
	}
	st.hasRec, st.best, st.baseline, st.prep = true, rec.Best, w, nil
	return nil
}

// replayer feeds windows through Service.Ingest on a fresh service and
// through the decomposition, window by window in the order given.
type replayer struct {
	svc *recommender.Service
	dec *decomposer
	// windows counts the windows fed since the last resetCounts.
	windows int
}

func newReplayer(pred *sizeless.Predictor, opts ...sizeless.Option) (*replayer, error) {
	svc, err := pred.NewService(opts...)
	if err != nil {
		return nil, err
	}
	return &replayer{svc: svc, dec: newDecomposer(pred)}, nil
}

func (r *replayer) resetCounts() {
	r.dec.resetCounts()
	r.windows = 0
}

// feed replays one request's or call's windows in sorted function order.
func (r *replayer) feed(ctx context.Context, tr *tracer, parent spanRef, batch map[string][]monitoring.Invocation) error {
	ids := make([]string, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ingest := func() error {
			sp := tr.begin("recommender.ingest", parent)
			defer sp.end()
			_, err := r.svc.Ingest(ctx, id, batch[id])
			return err
		}
		decomposed := func() error {
			sp := tr.begin("replay.window", parent)
			defer sp.end()
			return r.dec.window(tr, sp.ref(), id, batch[id])
		}
		// Whichever runs second finds the window in cache; alternating
		// the order charges that to both sides equally.
		first, second := ingest, decomposed
		if r.windows%2 == 1 {
			first, second = decomposed, ingest
		}
		if err := first(); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := second(); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		r.windows++
	}
	return nil
}

// feedBody decodes one POST /v1/ingest body exactly as the handler does,
// replays its windows, and encodes the handler's response.
func (r *replayer) feedBody(ctx context.Context, tr *tracer, body []byte) error {
	root := tr.begin("replay.request", spanRef{})
	defer root.end()
	var req serve.IngestRequest
	sp := tr.begin("serve.decode", root.ref())
	err := decodeStrict(body, &req)
	sp.end()
	if err != nil {
		return err
	}
	if err := r.feed(ctx, tr, root.ref(), req.Windows); err != nil {
		return err
	}
	n := 0
	for _, w := range req.Windows {
		n += len(w)
	}
	sp = tr.begin("serve.encode", root.ref())
	err = json.NewEncoder(io.Discard).Encode(serve.IngestResponse{QueuedFunctions: len(req.Windows), QueuedInvocations: n})
	sp.end()
	return err
}

// check asserts the decomposition recomputed exactly when the service did.
func (r *replayer) check(ids []string) error {
	for _, id := range ids {
		st, err := r.svc.Status(id)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		got := r.dec.fns[id]
		if got == nil {
			return fmt.Errorf("replay: %s: never reached the decomposition", id)
		}
		if got.recomputes != st.Recomputations {
			return fmt.Errorf("replay: %s: decomposition recomputed %d times, service %d", id, got.recomputes, st.Recomputations)
		}
	}
	return nil
}

// decodeStrict decodes a request body the way the daemon's handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// ingestLayers turns a replay's spans into the per-window layer metrics
// shared by both ingest workloads, and checks that the decomposition's
// layers account for the measured Service.Ingest time.
func ingestLayers(out *outcome, table map[string]layerStat, r *replayer) {
	windows := float64(r.windows)
	ingest := table["recommender.ingest"].MeanUS
	var children float64
	for _, name := range []string{"monitoring.drift", "monitoring.summarize", "core.predict", "optimizer.optimize"} {
		l := table[name]
		children += l.MeanUS * float64(l.Count) / windows
	}
	out.layers["recommender.ingest_us"] = ingest
	out.layers["recommender.self_us"] = ingest - children
	out.layers["monitoring.drift_us"] = table["monitoring.drift"].MeanUS
	out.layers["monitoring.summarize_us"] = table["monitoring.summarize"].MeanUS
	out.layers["core.predict_us"] = table["core.predict"].MeanUS
	out.layers["optimizer.optimize_us"] = table["optimizer.optimize"].MeanUS
	out.layers["trace.coverage"] = children / ingest
	d := r.dec
	out.layers["recommender.drift_checks"] = float64(d.checks)
	out.layers["recommender.recomputes"] = float64(d.recomputes)
	if d.checks > 0 {
		out.layers["recommender.recompute_share"] = float64(d.recomputes) / float64(d.checks)
	}
	if d.recomputes > 0 {
		out.layers["recommender.changed_share"] = float64(d.changed) / float64(d.recomputes)
	}
	out.notef("replay: %d windows, layers cover %.1f%% of the mean Service.Ingest time (%.1f µs)", r.windows, 100*children/ingest, ingest)
}

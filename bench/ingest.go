package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/recommender"
	"sizeless/internal/serve"
	"sizeless/internal/xrand"
)

// visibleWithin bounds how long a client waits for accepted windows to
// show in Service.Status before counting the request as failed.
const visibleWithin = 10 * time.Second

// fleetIDs names the fleet's functions.
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("fn-%03d", i)
	}
	return ids
}

// group returns the functions of group g when ids is split into groups
// of per.
func group(ids []string, g, per int) []string { return ids[g*per : (g+1)*per] }

// groupWindows draws one stationary window per function of a group.
func groupWindows(rng *xrand.Stream, ids []string, size int, scale float64) map[string][]monitoring.Invocation {
	m := make(map[string][]monitoring.Invocation, len(ids))
	for _, id := range ids {
		m[id] = fleetsynth.Window(rng.Derive(id), size, scale)
	}
	return m
}

// ingestInputs are ingest-http's pre-encoded request bodies: one warm-up
// round, then poolRounds rounds reused cyclically. Each round holds one
// body per group of perRequest functions.
type ingestInputs struct {
	ids    []string
	groups int
	warm   [][]byte
	pool   [][][]byte // [round][group]
	due    loadgen.Schedule
}

func makeIngestInputs(cfg config, phaseA time.Duration) (*ingestInputs, error) {
	sc := cfg.sc
	root := xrand.New(cfg.seed).Derive("ingest-http")
	in := &ingestInputs{ids: fleetIDs(sc.fleet), groups: sc.fleet / sc.perRequest}
	body := func(rng *xrand.Stream, g int) ([]byte, error) {
		return json.Marshal(serve.IngestRequest{Windows: groupWindows(rng, group(in.ids, g, sc.perRequest), sc.window, 1)})
	}
	for g := 0; g < in.groups; g++ {
		b, err := body(root.Derive("warm"), g)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, b)
	}
	for r := 0; r < sc.poolRounds; r++ {
		var round [][]byte
		for g := 0; g < in.groups; g++ {
			b, err := body(root.DeriveIndexed("round", r), g)
			if err != nil {
				return nil, err
			}
			round = append(round, b)
		}
		in.pool = append(in.pool, round)
	}
	var err error
	in.due, err = loadgen.Sample(loadgen.ConstantProfile{RPS: sc.ingestRPS}, phaseA, root.Derive("arrivals"))
	return in, err
}

// phaseABody is phase A request i's body: group i%groups, pooled round
// (i/groups) modulo the pool's rounds.
func (in *ingestInputs) phaseABody(i int) []byte {
	return in.pool[(i/in.groups)%len(in.pool)][i%in.groups]
}

// sideStats is what the side traffic beside the ingest load measured.
type sideStats struct {
	attempted, failed int
	fleetReads        []reqTimes
	snapshots         []reqTimes
	snapshotErrs      []error
}

// sideTraffic reads /v1/fleet every sideEvery from now on, and takes a
// snapshot every snapshotEvery from snapFrom+snapshotEvery/2 on, until stop
// is closed. It does not poll /v1/healthz: each call re-serializes the
// model to fingerprint it (~0.2 s on the 2-core reference machine), which
// at any polling rate would dwarf the ingest work.
func sideTraffic(ctx context.Context, stop <-chan struct{}, d *daemon, c *http.Client, sc scale, snapFrom time.Time) *sideStats {
	st := &sideStats{}
	tick := time.NewTicker(sc.sideEvery)
	defer tick.Stop()
	nextSnap := snapFrom.Add(sc.snapshotEvery / 2)
	for {
		select {
		case <-stop:
			return st
		case <-ctx.Done():
			return st
		case <-tick.C:
		}
		t := reqTimes{sent: time.Now()}
		code, _, err := do(ctx, c, http.MethodGet, d.url+"/v1/fleet", nil)
		t.visible = time.Now()
		st.attempted++
		if err != nil || code != http.StatusOK {
			st.failed++
		} else {
			st.fleetReads = append(st.fleetReads, t)
		}

		if !time.Now().Before(nextSnap) {
			nextSnap = nextSnap.Add(sc.snapshotEvery)
			t := reqTimes{sent: time.Now()}
			err := d.srv.Snapshot()
			t.visible = time.Now()
			st.attempted++
			st.snapshots = append(st.snapshots, t)
			if err != nil {
				st.failed++
				st.snapshotErrs = append(st.snapshotErrs, err)
			}
		}
	}
}

// runIngestHTTP is the provider's steady state: monitoring windows POSTed
// to the daemon at a fixed arrival rate (phase A, latency) and then as
// fast as one client can (phase B, throughput), beside fleet reads (both
// phases) and snapshots (phase B).
func runIngestHTTP(ctx context.Context, cfg config) (*outcome, error) {
	sc, out := cfg.sc, newOutcome()
	phaseA := cfg.seconds / 2
	phaseB := cfg.seconds - phaseA
	model, err := trainServingModel(ctx, cfg)
	if err != nil {
		return nil, err
	}
	in, err := makeIngestInputs(cfg, phaseA)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	snapDir, err := os.MkdirTemp(cfg.dir, "snapshots-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	reps := 0
	setupFrom := time.Now()
	d, setup, err := timeSetup(sc.setupReps, func() (*daemon, error) {
		reps++
		return startDaemon(ctx, model, sc.workers, filepath.Join(snapDir, fmt.Sprintf("fleet-%d.snap", reps)))
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	out.timed("setup_s", setup, since(setupFrom))
	running := true
	defer func() {
		if running {
			_ = d.stop() // error path: the run already failed
		}
	}()
	svc := d.srv.Service()
	client := newClient()
	defer client.CloseIdleConnections()

	post := func(body []byte) bool {
		code, _, err := do(ctx, client, http.MethodPost, d.url+"/v1/ingest", body)
		return err == nil && code == http.StatusAccepted
	}
	// visible reports whether every function of group g has absorbed n
	// windows.
	visible := func(g, n int) bool {
		for _, id := range group(in.ids, g, sc.perRequest) {
			st, err := svc.Status(id)
			if err != nil || st.Observed < n*sc.window {
				return false
			}
		}
		return true
	}

	// Warm-up: every function gets its baseline window and a
	// recommendation before timing starts.
	for _, body := range in.warm {
		if !post(body) {
			return nil, fmt.Errorf("warm-up request refused")
		}
	}
	if !waitVisible(ctx, 2*visibleWithin, func() bool { return svc.Summarize().WithRecommend == sc.fleet }) {
		return nil, fmt.Errorf("warm-up: not every function got a recommendation")
	}

	runtime.GC()
	smp := startSampler()
	stopSide := make(chan struct{})
	sideDone := make(chan *sideStats, 1)
	sideClient := newClient()
	defer sideClient.CloseIdleConnections()
	// Snapshots run beside phase B only, where their CPU and shard-lock
	// time comes out of throughput. In phase A a snapshot or two would
	// hold up about as many requests as lie beyond the tail percentile,
	// so whether one fell in the window would decide the tail.
	phaseBFrom := time.Now().Add(phaseA)
	go func() { sideDone <- sideTraffic(ctx, stopSide, d, sideClient, sc, phaseBFrom) }()

	// Phase A: open loop at the sampled Poisson arrival times. Request i
	// carries group i%groups its window number 1+i/groups (0 is the
	// warm-up), so what it must make visible is fixed in advance.
	const senders = 2
	startA := time.Now()
	timesA := openLoop(ctx, in.due, senders, visibleWithin,
		func(i int) bool { return post(in.phaseABody(i)) },
		func(i int) bool { return visible(i%in.groups, 2+i/in.groups) })
	phaseAWindow := since(startA)

	// sent[g] counts the windows each function of group g has had
	// accepted.
	sent := make([]int, in.groups)
	for g := range sent {
		sent[g] = 1
	}
	for i, t := range timesA {
		if !t.acked.IsZero() {
			sent[i%in.groups]++
		}
	}

	// Phase B: closed loop, one client sending the groups in turn and
	// waiting for each request's windows to be visible before sending the
	// next. With two clients, their decodes, the drainers and the side
	// traffic fill both cores, and how the scheduler interleaved them
	// moved throughput as much as the work did: its run-to-run spread was
	// two to three times as wide.
	var attemptedB, failedB, windowsB int
	startB := time.Now()
	lastB := startB
	for k := 0; time.Since(startB) < phaseB && ctx.Err() == nil; k++ {
		g := k % in.groups
		attemptedB++
		if !post(in.pool[(sent[g]-1)%len(in.pool)][g]) {
			failedB++
			continue
		}
		sent[g]++
		n := sent[g]
		if !waitVisible(ctx, visibleWithin, func() bool { return visible(g, n) }) {
			failedB++
			continue
		}
		windowsB += sc.perRequest
		lastB = time.Now()
	}
	close(stopSide)
	side := <-sideDone
	smp.finish(out)

	// Phase A latency, from each request's due time.
	var lat, lag []time.Duration
	for _, t := range timesA {
		out.attempted++
		if !t.ok {
			out.failed++
			continue
		}
		lat = append(lat, t.visible.Sub(t.due))
		lag = append(lag, t.sent.Sub(t.due))
	}
	out.setTiming("phase A due→visible", summarize(lat), phaseAWindow)
	out.attempted += attemptedB
	out.failed += failedB
	if windowsB == 0 {
		return nil, fmt.Errorf("phase B completed no request")
	}
	out.timed("throughput_per_s", float64(windowsB)/lastB.Sub(startB).Seconds(), interval{startB, lastB})
	out.notef("phase A: %d requests due at %.0f/s over %v; phase B: %d windows visible over %v (windows/s)",
		len(in.due), sc.ingestRPS, phaseA, windowsB, lastB.Sub(startB).Round(time.Millisecond))
	out.attempted += side.attempted
	out.failed += side.failed

	// Oracles: every accepted window was absorbed, nothing failed inside
	// the daemon, every function has a recommendation, every snapshot
	// was written.
	d.srv.Drain()
	code, b, err := do(ctx, client, http.MethodGet, d.url+"/v1/healthz", nil)
	var h serve.Health
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(b, &h)
	}
	if err != nil || code != http.StatusOK {
		out.problemf("healthz: status %d, %v", code, err)
	}
	checkIngestHTTP(out, svc, in.ids, sent, sc.window, h.IngestErrors, side.snapshotErrs)

	if cfg.trace != nil {
		out.layers["serve.rejected"] = float64(h.RejectedBatches)
		if err := traceIngestHTTP(ctx, cfg, out, model, in, timesA, lag, side); err != nil {
			return nil, err
		}
	}
	running = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	return out, nil
}

// checkIngestHTTP is ingest-http's correctness oracle. The fleet is split
// into len(sent) equal groups in ids order; sent[g] counts the windows
// accepted for each function of group g.
func checkIngestHTTP(out *outcome, svc *recommender.Service, ids []string, sent []int, window int, ingestErrors int64, snapErrs []error) {
	if ingestErrors != 0 {
		out.problemf("daemon reported %d ingest errors", ingestErrors)
	}
	for _, err := range snapErrs {
		out.problemf("snapshot: %v", err)
	}
	per := len(ids) / len(sent)
	for i, id := range ids {
		n := sent[i/per]
		st, err := svc.Status(id)
		switch {
		case err != nil:
			out.problemf("%s: %v", id, err)
		case st.Observed != n*window:
			out.problemf("%s: observed %d invocations, sent %d windows of %d", id, st.Observed, n, window)
		case !st.HasRecommendation:
			out.problemf("%s: no recommendation", id)
		}
	}
}

// traceIngestHTTP records the timed phase's spans and replays the warm-up
// and the first phase A bodies through the layers one call at a time.
func traceIngestHTTP(ctx context.Context, cfg config, out *outcome, model []byte, in *ingestInputs, timesA []reqTimes, lag []time.Duration, side *sideStats) error {
	tr, sc := cfg.trace, cfg.sc
	var post, commit []float64
	for _, t := range timesA {
		if !t.ok {
			continue
		}
		root := tr.add("ingest.request", spanRef{}, t.due, t.visible)
		tr.add("loadgen.lag", root, t.due, t.sent)
		tr.add("serve.post", root, t.sent, t.acked)
		tr.add("serve.commit_wait", root, t.acked, t.visible)
		post = append(post, us(t.acked.Sub(t.sent)))
		commit = append(commit, us(t.visible.Sub(t.acked)))
	}
	var fleet, snaps []float64
	for _, t := range side.fleetReads {
		tr.add("serve.fleet_read", spanRef{}, t.sent, t.visible)
		fleet = append(fleet, us(t.visible.Sub(t.sent)))
	}
	for _, t := range side.snapshots {
		tr.add("serve.snapshot", spanRef{}, t.sent, t.visible)
		snaps = append(snaps, ms(t.visible.Sub(t.sent)))
	}
	out.layers["loadgen.lag_tail_ms"] = ms(summarize(lag).Tail)
	out.layers["loadgen.sent"] = float64(len(timesA))
	out.layers["serve.post_us"] = mean(post)
	out.layers["serve.commit_wait_us"] = mean(commit)
	out.layers["serve.fleet_read_us"] = mean(fleet)
	out.layers["serve.snapshot_ms"] = mean(snaps)
	out.layers["serve.queue_depth_max"] = float64(maxOverlap(timesA) * sc.perRequest)

	pred, err := loadPredictor(model, sc.workers)
	if err != nil {
		return err
	}
	r, err := newReplayer(pred, sizeless.WithWorkers(sc.workers))
	if err != nil {
		return err
	}
	for _, body := range in.warm {
		if err := r.feedBody(ctx, nil, body); err != nil {
			return err
		}
	}
	r.resetCounts()
	var decoded int
	for i, t := range timesA {
		if i >= sc.replayRequests {
			break
		}
		if !t.ok {
			continue
		}
		body := in.phaseABody(i)
		decoded += len(body)
		if err := r.feedBody(ctx, tr, body); err != nil {
			return err
		}
	}
	if err := r.check(in.ids); err != nil {
		out.problemf("%v", err)
	}
	out.spans = tr.snapshot()
	table := layerIndex(layerTable(out.spans))
	ingestLayers(out, table, r)
	dec := table["serve.decode"]
	out.layers["serve.decode_us"] = dec.MeanUS
	out.layers["serve.decode_mb_s"] = float64(decoded) / (1 << 20) / (dec.MeanUS * float64(dec.Count) / 1e6)
	out.layers["serve.encode_us"] = table["serve.encode"].MeanUS
	out.layers["serve.http_self_us"] = mean(post) - dec.MeanUS - table["serve.encode"].MeanUS
	return nil
}

// maxOverlap is the largest number of requests that were accepted and not
// yet visible at one instant: the queue depth as the clients saw it, in
// requests, without polling the daemon.
func maxOverlap(times []reqTimes) int {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, t := range times {
		if t.ok {
			edges = append(edges, edge{t.acked, 1}, edge{t.visible, -1})
		}
	}
	// Ends sort before starts at the same instant.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].at.Before(edges[j].at)
	})
	depth, peak := 0, 0
	for _, e := range edges {
		depth += e.delta
		peak = max(peak, depth)
	}
	return peak
}

// runIngestShift is a drift storm: every window a function sends differs
// in scale from its previous one, so every ingest after the first
// recomputes. Windows go straight into Service.IngestBatch.
func runIngestShift(ctx context.Context, cfg config) (*outcome, error) {
	sc, out := cfg.sc, newOutcome()
	model, err := trainServingModel(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ids := fleetIDs(sc.fleet)
	groups := sc.fleet / sc.perRequest
	root := xrand.New(cfg.seed).Derive("ingest-shift")
	// batches[k][g] is group g's k-th window in the cycle; even k at scale
	// 1, odd k at scale 3, so consecutive windows always drift.
	batches := make([][]map[string][]monitoring.Invocation, sc.shiftPool)
	for k := range batches {
		rng := root.DeriveIndexed("window", k)
		for g := 0; g < groups; g++ {
			batches[k] = append(batches[k], groupWindows(rng, group(ids, g, sc.perRequest), sc.shiftWindow, float64(1+2*(k%2))))
		}
	}
	serviceOpts := []sizeless.Option{sizeless.WithMinWindow(sc.shiftWindow), sizeless.WithWorkers(sc.workers)}

	setupFrom := time.Now()
	svc, setup, err := timeSetup(sc.setupReps, func() (*recommender.Service, error) {
		pred, err := loadPredictor(model, sc.workers)
		if err != nil {
			return nil, err
		}
		return pred.NewService(serviceOpts...)
	}, func(*recommender.Service) error { return nil })
	if err != nil {
		return nil, err
	}
	out.timed("setup_s", setup, since(setupFrom))

	// Call c sends group c%groups its window number 1+c/groups; window 0
	// is the warm-up baseline.
	batchOf := func(c int) map[string][]monitoring.Invocation {
		return batches[(1+c/groups)%sc.shiftPool][c%groups]
	}
	for g := 0; g < groups; g++ {
		if _, err := svc.IngestBatch(ctx, batches[0][g]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if n := svc.Summarize().WithRecommend; n != sc.fleet {
		return nil, fmt.Errorf("warm-up: %d of %d functions have a recommendation", n, sc.fleet)
	}

	runtime.GC()
	smp := startSampler()
	var calls []reqTimes
	start := time.Now()
	for c := 0; time.Since(start) < cfg.seconds && ctx.Err() == nil; c++ {
		t := reqTimes{sent: time.Now()}
		_, err := svc.IngestBatch(ctx, batchOf(c))
		t.visible = time.Now()
		t.ok = err == nil
		calls = append(calls, t)
		if err != nil {
			out.problemf("call %d: %v", c, err)
			break
		}
	}
	timed := since(start)
	smp.finish(out)

	lat := make([]time.Duration, 0, len(calls))
	for _, t := range calls {
		lat = append(lat, t.visible.Sub(t.sent))
		out.attempted++
		if !t.ok {
			out.failed++
		}
	}
	out.setTiming("IngestBatch call", summarize(lat), timed)
	windows := len(calls) * sc.perRequest
	elapsed := timed.to.Sub(timed.from)
	out.timed("throughput_per_s", float64(windows)/elapsed.Seconds(), timed)
	out.notef("%d calls of %d windows in %v (windows/s)", len(calls), sc.perRequest, elapsed.Round(time.Millisecond))

	// Oracle: each function recomputed on every window after its first.
	sentTo := make([]int, groups)
	for c := range calls {
		sentTo[c%groups]++
	}
	for i, id := range ids {
		n := 1 + sentTo[i/sc.perRequest]
		st, err := svc.Status(id)
		switch {
		case err != nil:
			out.problemf("%s: %v", id, err)
		case st.Observed != n*sc.shiftWindow:
			out.problemf("%s: observed %d invocations, sent %d windows of %d", id, st.Observed, n, sc.shiftWindow)
		case st.Recomputations != n-1:
			out.problemf("%s: %d recomputations after %d windows, want %d", id, st.Recomputations, n, n-1)
		}
	}

	if cfg.trace == nil {
		return out, nil
	}
	tr := cfg.trace
	for _, t := range calls {
		tr.add("recommender.ingest_batch", spanRef{}, t.sent, t.visible)
	}
	pred, err := loadPredictor(model, sc.workers)
	if err != nil {
		return nil, err
	}
	r, err := newReplayer(pred, serviceOpts...)
	if err != nil {
		return nil, err
	}
	for g := 0; g < groups; g++ {
		if err := r.feed(ctx, nil, spanRef{}, batches[0][g]); err != nil {
			return nil, err
		}
	}
	r.resetCounts()
	for c := 0; c < len(calls) && c < sc.shiftReplayCalls; c++ {
		sp := tr.begin("replay.call", spanRef{})
		err := r.feed(ctx, tr, sp.ref(), batchOf(c))
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	if err := r.check(ids); err != nil {
		out.problemf("%v", err)
	}
	out.spans = tr.snapshot()
	ingestLayers(out, layerIndex(layerTable(out.spans)), r)
	return out, nil
}

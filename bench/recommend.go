package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"sizeless"
	"sizeless/internal/optimizer"
	"sizeless/internal/recommender"
	"sizeless/internal/serve"
)

// maxProblems caps how many oracle failures one run lists; the first few
// say what went wrong, the rest only repeat it.
const maxProblems = 20

// recommendInputs are recommend-http's pre-encoded request bodies and, for
// each, the exact response bytes the in-process predictor says the daemon
// must return.
type recommendInputs struct {
	bodies [][]byte
	want   [][]byte
	rows   int // summaries per request
}

// makeRecommendInputs measures held-out generated functions at the base
// size, batches their summaries into requests, and computes each expected
// response with Predictor.RecommendBatch on the summaries as the daemon
// decodes them.
func makeRecommendInputs(ctx context.Context, cfg config, oracle *sizeless.Predictor) (*recommendInputs, error) {
	sc := cfg.sc
	ds, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(sc.heldOut),
		sizeless.WithSizes(oracle.Base()),
		sizeless.WithRate(sc.modelRate),
		sizeless.WithDuration(sc.modelDuration),
		sizeless.WithSeed(subSeed(cfg.seed, "recommend-http/held-out")),
		sizeless.WithWorkers(sc.workers),
	)
	if err != nil {
		return nil, err
	}
	in := &recommendInputs{rows: sc.recommendBatch}
	for lo := 0; lo+sc.recommendBatch <= len(ds.Rows); lo += sc.recommendBatch {
		sums := make([]sizeless.Summary, 0, sc.recommendBatch)
		for _, row := range ds.Rows[lo : lo+sc.recommendBatch] {
			sums = append(sums, row.Summaries[oracle.Base()])
		}
		body, err := json.Marshal(serve.RecommendRequest{Summaries: sums})
		if err != nil {
			return nil, err
		}
		var req serve.RecommendRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		recs, err := oracle.RecommendBatch(ctx, req.Summaries, defaultTradeoff)
		if err != nil {
			return nil, err
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(serve.RecommendResponse{Recommendations: recs}); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, want.Bytes())
	}
	if len(in.bodies) == 0 {
		return nil, fmt.Errorf("%d held-out functions make no request of %d", len(ds.Rows), sc.recommendBatch)
	}
	return in, nil
}

// checkRecommend is recommend-http's oracle: the daemon's response must
// equal, byte for byte, the in-process recommendation for the same
// summaries. On a mismatch it names the first differing summary.
func checkRecommend(code int, got, want []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(got))
	}
	if bytes.Equal(got, want) {
		return nil
	}
	var g, w serve.RecommendResponse
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("undecodable expected response: %w", err)
	}
	if len(g.Recommendations) != len(w.Recommendations) {
		return fmt.Errorf("%d recommendations, want %d", len(g.Recommendations), len(w.Recommendations))
	}
	for i := range w.Recommendations {
		if !reflect.DeepEqual(g.Recommendations[i], w.Recommendations[i]) {
			return fmt.Errorf("summary %d: recommended %v MB, in-process predictor %v MB", i, g.Recommendations[i].Best, w.Recommendations[i].Best)
		}
	}
	return fmt.Errorf("response differs from the in-process encoding")
}

// runRecommendHTTP is the stateless read path: one client POSTs batches of
// base summaries to /v1/recommend back to back.
func runRecommendHTTP(ctx context.Context, cfg config) (*outcome, error) {
	sc, out := cfg.sc, newOutcome()
	model, err := trainServingModel(ctx, cfg)
	if err != nil {
		return nil, err
	}
	oracle, err := loadPredictor(model, sc.workers)
	if err != nil {
		return nil, err
	}
	in, err := makeRecommendInputs(ctx, cfg, oracle)
	if err != nil {
		return nil, err
	}
	setupFrom := time.Now()
	d, setup, err := timeSetup(sc.setupReps, func() (*daemon, error) {
		return startDaemon(ctx, model, sc.workers, "")
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
	client := newClient()
	defer client.CloseIdleConnections()

	send := func(b int) reqTimes {
		t := reqTimes{sent: time.Now()}
		code, body, err := do(ctx, client, http.MethodPost, d.url+"/v1/recommend", in.bodies[b])
		t.visible = time.Now()
		if err == nil {
			err = checkRecommend(code, body, in.want[b])
		}
		if err != nil {
			if len(out.problems) < maxProblems {
				out.problemf("request body %d: %v", b, err)
			}
			return t
		}
		t.ok = true
		return t
	}
	for b := range in.bodies {
		if !send(b).ok {
			return nil, fmt.Errorf("warm-up: %s", out.problems[0])
		}
	}

	// One client: the handler's batched prediction already runs on every
	// worker, so a second client would only make the two requests take
	// turns on the same cores, and the latency would measure that.
	runtime.GC()
	smp := startSampler()
	var times []reqTimes
	start := time.Now()
	for k := 0; time.Since(start) < cfg.seconds && ctx.Err() == nil; k++ {
		times = append(times, send(k%len(in.bodies)))
	}
	timed := since(start)
	smp.finish(out)

	var lat []time.Duration
	var post []float64
	for _, t := range times {
		out.attempted++
		if !t.ok {
			out.failed++
			continue
		}
		lat = append(lat, t.visible.Sub(t.sent))
		post = append(post, us(t.visible.Sub(t.sent)))
		cfg.trace.add("serve.post", spanRef{}, t.sent, t.visible)
	}
	out.setTiming("POST /v1/recommend", summarize(lat), timed)
	elapsed := timed.to.Sub(timed.from)
	out.timed("throughput_per_s", float64(len(lat)*in.rows)/elapsed.Seconds(), timed)
	out.notef("%d requests of %d summaries in %v (summaries/s)", len(lat), in.rows, elapsed.Round(time.Millisecond))

	if cfg.trace != nil {
		out.layers["serve.post_us"] = mean(post)
		if err := replayRecommend(ctx, cfg, out, oracle, in); err != nil {
			return nil, err
		}
	}
	running = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	return out, nil
}

// replayRecommendOne replays one request body and reports whether the
// service and the decomposition recommended the same. Whichever of the two
// runs second finds the summaries in cache, so callers alternate
// decomposedFirst to charge that to both equally.
func replayRecommendOne(ctx context.Context, tr *tracer, svc *recommender.Service, pred *sizeless.Predictor, body []byte, decomposedFirst bool) (bool, error) {
	root := tr.begin("replay.request", spanRef{})
	defer root.end()
	var req serve.RecommendRequest
	sp := tr.begin("serve.decode", root.ref())
	err := decodeStrict(body, &req)
	sp.end()
	if err != nil {
		return false, err
	}
	var recs, mine []optimizer.Recommendation
	service := func() error {
		sp := tr.begin("recommender.recommend_batch", root.ref())
		defer sp.end()
		var err error
		recs, err = svc.RecommendBatch(ctx, req.Summaries)
		return err
	}
	decomposed := func() error {
		parts := tr.begin("replay.decomposed", root.ref())
		defer parts.end()
		sp := tr.begin("core.predict_batch", parts.ref())
		times, err := pred.PredictBatch(ctx, req.Summaries)
		sp.end()
		if err != nil {
			return err
		}
		pricing := pred.Provider().Platform().Pricing
		mine = make([]optimizer.Recommendation, len(times))
		for i, t := range times {
			sp := tr.begin("optimizer.optimize", parts.ref())
			mine[i], err = optimizer.Optimize(t, pricing, defaultTradeoff)
			sp.end()
			if err != nil {
				return err
			}
		}
		return nil
	}
	first, second := service, decomposed
	if decomposedFirst {
		first, second = decomposed, service
	}
	if err := first(); err != nil {
		return false, err
	}
	if err := second(); err != nil {
		return false, err
	}
	sp = tr.begin("serve.encode", root.ref())
	err = json.NewEncoder(io.Discard).Encode(serve.RecommendResponse{Recommendations: recs})
	sp.end()
	return reflect.DeepEqual(mine, recs), err
}

// replayRecommend feeds the request bodies again through the handler's
// steps on a fresh service — decode, Service.RecommendBatch, encode — and
// through PredictBatch and Optimize one call at a time, and checks that
// both recommend the same.
func replayRecommend(ctx context.Context, cfg config, out *outcome, pred *sizeless.Predictor, in *recommendInputs) error {
	tr, sc := cfg.trace, cfg.sc
	svc, err := pred.NewService(sizeless.WithWorkers(sc.workers))
	if err != nil {
		return err
	}
	var decoded, n int
	for p := 0; p < sc.replayPasses; p++ {
		for _, body := range in.bodies {
			same, err := replayRecommendOne(ctx, tr, svc, pred, body, n%2 == 1)
			if err != nil {
				return err
			}
			if !same {
				out.problemf("replay: decomposed recommendations differ from Service.RecommendBatch")
			}
			decoded += len(body)
			n++
		}
	}

	out.spans = tr.snapshot()
	table := layerIndex(layerTable(out.spans))
	dec, enc, batch := table["serve.decode"], table["serve.encode"], table["recommender.recommend_batch"]
	predict, opt := table["core.predict_batch"], table["optimizer.optimize"]
	perRequest := float64(opt.Count) / float64(batch.Count)
	parts := predict.MeanUS + opt.MeanUS*perRequest
	out.layers["serve.decode_us"] = dec.MeanUS
	out.layers["serve.decode_mb_s"] = float64(decoded) / (1 << 20) / (dec.MeanUS * float64(dec.Count) / 1e6)
	out.layers["serve.encode_us"] = enc.MeanUS
	out.layers["serve.http_self_us"] = out.layers["serve.post_us"] - dec.MeanUS - batch.MeanUS - enc.MeanUS
	out.layers["recommender.recommend_batch_us"] = batch.MeanUS
	out.layers["recommender.self_us"] = batch.MeanUS - parts
	out.layers["core.predict_batch_us_per_row"] = predict.MeanUS / float64(in.rows)
	out.layers["optimizer.optimize_us"] = opt.MeanUS
	handler := dec.MeanUS + batch.MeanUS + enc.MeanUS
	out.layers["trace.coverage"] = (dec.MeanUS + parts + enc.MeanUS) / handler
	out.notef("replay: %d requests, layers cover %.1f%% of the handler's decode+recommend+encode time (%.1f µs); the HTTP round trip under load is %.1f µs",
		batch.Count, 100*out.layers["trace.coverage"], handler, out.layers["serve.post_us"])
	return nil
}

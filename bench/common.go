package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"sizeless"
	"sizeless/internal/serve"
	"sizeless/internal/xrand"
)

// scale sizes every workload. defaultScale is what the command runs;
// the package test shrinks it so all four workloads finish in seconds.
type scale struct {
	// The serving model: trained on modelFunctions generated functions
	// measured at modelRate × modelDuration, for modelEpochs epochs, with
	// modelHidden layers (nil = the paper's 4×256). recommend-http's
	// held-out functions are measured the same way.
	modelFunctions int
	modelRate      float64
	modelDuration  time.Duration
	modelEpochs    int
	modelHidden    []int
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// workers bounds the serving and pipeline pools: one per core of the
	// 2-core reference machine.
	workers int

	// ingest-http
	fleet          int     // tracked functions
	perRequest     int     // functions per POST /v1/ingest
	window         int     // invocations per window
	poolRounds     int     // pre-encoded windows per function, reused cyclically
	ingestRPS      float64 // phase A arrival rate, requests/s
	sideEvery      time.Duration
	snapshotEvery  time.Duration
	replayRequests int // phase A requests the traced replay feeds again

	// ingest-shift
	shiftWindow      int
	shiftPool        int // windows per function, alternating scale 1 and 3
	shiftReplayCalls int

	// recommend-http
	heldOut        int // held-out functions whose base summaries are scored
	recommendBatch int // summaries per request
	replayPasses   int // passes over the request bodies in the traced replay

	// offline-pipeline
	pipeFunctions int // functions in each of the training and held-out sets
	pipeRate      float64
	pipeDuration  time.Duration
	pipeEpochs    int
	pipeEnsemble  int
	pipeHidden    []int // nil = the paper's 4×256
	// pipeMinTop2 is the quality floor: a pipeline whose recommendations
	// rank in the best two sizes for a smaller share of the held-out
	// functions is broken, not merely less accurate (the paper reports
	// 94%). A model too small to learn, as in the package test, has none.
	pipeMinTop2 float64
}

func defaultScale() scale {
	return scale{
		modelFunctions: 120,
		modelRate:      10,
		modelDuration:  8 * time.Second,
		modelEpochs:    20,
		setupReps:      5,
		workers:        2,

		fleet:          256,
		perRequest:     16,
		window:         100,
		poolRounds:     2,
		ingestRPS:      25,
		sideEvery:      250 * time.Millisecond,
		snapshotEvery:  5 * time.Second,
		replayRequests: 64,

		shiftWindow:      24,
		shiftPool:        8,
		shiftReplayCalls: 48,

		heldOut:        256,
		recommendBatch: 64,
		replayPasses:   8,

		pipeFunctions: 40,
		pipeRate:      30,
		pipeDuration:  2 * time.Minute,
		pipeEpochs:    200, // the paper's
		pipeEnsemble:  3,   // the library default
		pipeMinTop2:   0.5,
	}
}

// trainServingModel fits the model every serving workload loads, and
// returns it as saved model bytes: the daemon's input, not its state.
func trainServingModel(ctx context.Context, cfg config) ([]byte, error) {
	sc := cfg.sc
	ds, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(sc.modelFunctions),
		sizeless.WithRate(sc.modelRate),
		sizeless.WithDuration(sc.modelDuration),
		sizeless.WithSeed(cfg.seed),
		sizeless.WithWorkers(sc.workers),
	)
	if err != nil {
		return nil, err
	}
	opts := []sizeless.Option{
		sizeless.WithEpochs(sc.modelEpochs),
		sizeless.WithSeed(cfg.seed),
		sizeless.WithWorkers(sc.workers),
	}
	if sc.modelHidden != nil {
		opts = append(opts, sizeless.WithHidden(sc.modelHidden...))
	}
	pred, err := sizeless.TrainPredictor(ctx, ds, opts...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func loadPredictor(model []byte, workers int) (*sizeless.Predictor, error) {
	return sizeless.LoadPredictor(bytes.NewReader(model), sizeless.WithWorkers(workers))
}

// subSeed derives an independent seed for one named input from the run's
// seed, so inputs never share a random stream.
func subSeed(seed int64, name string) int64 {
	return xrand.New(seed).Derive(name).Int63()
}

// timeSetup brings the system under test up reps times and returns the
// last instance with the median bring-up time in seconds; the others are
// torn down. A GC before each repetition starts every bring-up from the
// same heap state.
func timeSetup[T any](reps int, up func() (T, error), down func(T) error) (T, float64, error) {
	var zero T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := up()
		if err != nil {
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == reps-1 {
			return v, median(secs), nil
		}
		if err := down(v); err != nil {
			return zero, 0, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	return zero, 0, fmt.Errorf("set-up: %d repetitions", reps)
}

// daemon is an in-process `sizeless serve` bound to a loopback port.
type daemon struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startDaemon is the timed serving set-up: load the model bytes, build the
// daemon, and run it until its listener is bound.
func startDaemon(ctx context.Context, model []byte, workers int, snapshot string) (*daemon, error) {
	pred, err := loadPredictor(model, workers)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Predictor:      pred,
		ServiceOptions: []sizeless.Option{sizeless.WithWorkers(workers)},
		Addr:           "127.0.0.1:0",
		SnapshotPath:   snapshot,
		// Snapshots are taken on the workload's own schedule.
		SnapshotInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	d := &daemon{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Run(rctx) }()
	select {
	case <-srv.Started():
		d.url = "http://" + srv.Addr()
		return d, nil
	case err := <-d.done:
		cancel()
		return nil, fmt.Errorf("daemon did not start: %w", err)
	}
}

// stop shuts the daemon down and waits for Run to return.
//
// Run starts its HTTP server and the goroutine that shuts it down as
// separate jobs of one pool, and a pool skips jobs not yet started once
// its context is cancelled. Cancelled right after Started, Run can thus
// keep serving with nothing left to stop it. An answered request first
// means the jobs have been picked up (any status will do: the status of
// an unknown function is the cheapest answer); the timeout turns any
// remaining hang into an error.
func (d *daemon) stop() error {
	c := newClient()
	_, _, err := do(context.Background(), c, http.MethodGet, d.url+"/v1/status?function=-", nil)
	c.CloseIdleConnections()
	d.cancel()
	select {
	case runErr := <-d.done:
		if runErr != nil {
			return runErr
		}
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon at %s did not stop within 30s", d.url)
	}
}

// newClient returns an HTTP client for a loopback daemon. The callers keep
// at most a few requests in flight, so a few idle connections suffice.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

// do sends one request and returns the status and the whole response body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sampler records the live heap every 100 ms and the share of CPU time the
// garbage collector used, over the timed phase. The live heap is what the
// last GC marked reachable; heap in use including garbage would mostly
// measure when the collector happened to run. Its median over the phase
// is what the system holds while it works. The peak is not reported: it
// depends on whether a collection happened to mark while a snapshot's
// buffers were live, which moved it by ±15% between runs of the same code.
type sampler struct {
	stopc   chan struct{}
	done    chan struct{}
	live    []float64 // bytes
	gc, cpu float64
}

var samplerMetrics = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(samplerMetrics))
	for i, n := range samplerMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	m := readMetrics()
	s.live = append(s.live, float64(m[0].Value.Uint64()))
	s.gc, s.cpu = m[1].Value.Float64(), m[2].Value.Float64()
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.live = append(s.live, float64(readMetrics()[0].Value.Uint64()))
			}
		}
	}()
	return s
}

// finish stops sampling and stores live_heap_mb and go.gc_cpu_share.
func (s *sampler) finish(out *outcome) {
	close(s.stopc)
	<-s.done
	m := readMetrics()
	s.live = append(s.live, float64(m[0].Value.Uint64()))
	out.e2e["live_heap_mb"] = median(s.live) / (1 << 20)
	if cpu := m[2].Value.Float64() - s.cpu; cpu > 0 {
		out.layers["go.gc_cpu_share"] = (m[1].Value.Float64() - s.gc) / cpu
	}
}

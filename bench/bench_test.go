package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/serve"
)

// tinyScale shrinks every workload so the four of them run in seconds.
func tinyScale() scale {
	sc := defaultScale()
	sc.modelFunctions, sc.modelDuration, sc.modelEpochs, sc.modelHidden = 24, 4*time.Second, 5, []int{16, 16}
	sc.setupReps = 2
	sc.fleet, sc.perRequest, sc.snapshotEvery, sc.replayRequests = 32, 8, 400*time.Millisecond, 8
	sc.shiftReplayCalls = 8
	sc.heldOut, sc.recommendBatch, sc.replayPasses = 32, 8, 2
	sc.pipeFunctions, sc.pipeRate, sc.pipeDuration, sc.pipeEpochs, sc.pipeHidden = 12, 10, 20*time.Second, 10, []int{16, 16}
	sc.pipeMinTop2 = 0
	return sc
}

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastJSON parses the result line a report ends with.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsSmoke runs every workload at a tiny scale, traced, and
// checks that its oracles pass and that the untraced and traced reports
// carry every metric BENCHMARK.json names, with its unit, as a finite
// number.
func TestWorkloadsSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	// Layers each workload must have measured (non-zero).
	exercised := map[string][]string{
		"ingest-http":      {"serve.post_us", "serve.decode_us", "serve.fleet_read_us", "serve.snapshot_ms", "recommender.ingest_us", "monitoring.drift_us", "recommender.drift_checks", "loadgen.sent"},
		"ingest-shift":     {"recommender.ingest_us", "core.predict_us", "monitoring.drift_us", "recommender.recomputes", "trace.coverage"},
		"recommend-http":   {"serve.post_us", "serve.decode_us", "recommender.recommend_batch_us", "core.predict_batch_us_per_row", "optimizer.optimize_us", "trace.coverage"},
		"offline-pipeline": {"harness.generate_s", "core.train_s", "core.train_row_epochs_per_s", "quality.top2_share", "trace.coverage"},
	}
	for _, w := range workloads {
		name := w.name
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 2 * time.Second, trace: newTracer(), sc: tinyScale(), dir: t.TempDir()}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := measure(ctx, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.problems) > 0 {
				t.Fatalf("oracle failures: %v", out.problems)
			}
			exercised[name] = append(exercised[name], "host.probe_us", "wall.setup_s", "wall.latency_p50_ms", "wall.throughput_per_s")
			for _, l := range exercised[name] {
				if out.layers[l] <= 0 {
					t.Errorf("layer metric %s = %v, want > 0", l, out.layers[l])
				}
			}

			untraced := cfg
			untraced.trace = nil
			var buf bytes.Buffer
			if err := report(&buf, name, untraced, out); err != nil {
				t.Fatal(err)
			}
			e2e := lastJSON(t, buf.String())
			buf.Reset()
			if err := report(&buf, name, cfg, out); err != nil {
				t.Fatal(err)
			}
			layers := lastJSON(t, buf.String())
			if !e2e.Correct || e2e.Attempted < 1 || e2e.Failed != 0 {
				t.Errorf("result %+v", e2e)
			}
			check := func(r result, name, unit string) {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", name, m, ok, unit)
				}
			}
			for _, m := range bj.EndToEnd {
				check(e2e, m.Name, m.Unit)
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			for _, m := range bj.PerLayer {
				check(layers, m.Name, m.Unit)
			}
		})
	}
}

// TestAtReferenceSpeed checks that each timed metric is scaled by the
// probe samples taken while it was measured, durations up and rates down,
// and that untimed metrics are left alone.
func TestAtReferenceSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	p := &hostProbe{}
	// The host runs at the reference speed for the first 10 s, then at
	// half of it.
	for i := 0; i < 20; i++ {
		p.at = append(p.at, at(float64(i)))
		p.us = append(p.us, refProbeUS*float64(1+i/10))
	}
	out := newOutcome()
	out.timed("setup_s", 0.5, interval{at(0), at(2)})
	out.timed("latency_p50_ms", 20, interval{at(10), at(19)})
	out.timed("throughput_per_s", 100, interval{at(10), at(19)})
	out.e2e["live_heap_mb"] = 30
	if err := out.atReferenceSpeed(p); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.5, "latency_p50_ms": 10, "throughput_per_s": 200, "live_heap_mb": 30}
	for name, v := range want {
		if got := out.e2e[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := out.layers["wall.latency_p50_ms"]; got != 20 {
		t.Errorf("wall.latency_p50_ms = %v, want the unscaled 20", got)
	}
	if got := out.layers["host.probe_us"]; got != 1.5*refProbeUS {
		t.Errorf("host.probe_us = %v, want the median of all samples, %v", got, 1.5*refProbeUS)
	}

	missing := newOutcome()
	missing.e2e["setup_s"] = 1
	if err := missing.atReferenceSpeed(p); err == nil {
		t.Error("a timed metric without an interval was scaled")
	}
}

// TestOpenLoopTimesFromDueTime stalls one request for 200 ms in a server
// that handles one request at a time: the requests due during the stall
// must be charged for it, including those that could not even be sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("i") == "2" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 20 * time.Millisecond
	}
	send := func(i int) bool {
		code, _, err := do(context.Background(), c, http.MethodGet, srv.URL+"/?i="+strconv.Itoa(i), nil)
		return err == nil && code == http.StatusOK
	}
	times := openLoop(context.Background(), due, 2, time.Second, send, func(int) bool { return true })

	for i, tm := range times {
		if !tm.ok {
			t.Fatalf("request %d not completed", i)
		}
	}
	lat := func(i int) time.Duration { return times[i].visible.Sub(times[i].due) }
	if lat(0) > stall/2 || lat(1) > stall/2 {
		t.Errorf("requests before the stall took %v and %v", lat(0), lat(1))
	}
	// Request 3 is sent on time but waits behind the stall; request 4
	// waits for a free sender, so its send is late too.
	if lat(3) < stall*3/4 || lat(4) < stall*3/4-20*time.Millisecond {
		t.Errorf("requests queued behind the stall took %v and %v, want about %v", lat(3), lat(4), stall)
	}
	if lag := times[4].sent.Sub(times[4].due); lag < stall/2 {
		t.Errorf("request 4 was sent %v after it was due, want the stall charged", lag)
	}
}

func TestCheckRecommendCatchesTamperedRecommendation(t *testing.T) {
	rec := optimizer.Recommendation{
		Tradeoff: defaultTradeoff,
		Best:     platform.Mem512,
		Options:  []optimizer.Option{{Memory: platform.Mem256}, {Memory: platform.Mem512}},
	}
	encode := func(recs ...optimizer.Recommendation) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(serve.RecommendResponse{Recommendations: recs}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := encode(rec, rec)
	if err := checkRecommend(http.StatusOK, want, want); err != nil {
		t.Fatalf("identical response rejected: %v", err)
	}
	tampered := rec
	tampered.Best = platform.Mem1024
	err := checkRecommend(http.StatusOK, encode(rec, tampered), want)
	if err == nil || !strings.Contains(err.Error(), "summary 1") {
		t.Errorf("tampered recommendation: got %v, want an error naming summary 1", err)
	}
	if err := checkRecommend(http.StatusOK, encode(rec), want); err == nil {
		t.Error("a missing recommendation passed")
	}
	if err := checkRecommend(http.StatusUnprocessableEntity, want, want); err == nil {
		t.Error("an error status passed")
	}
}

func TestCheckPassesCatchesDrift(t *testing.T) {
	ref := passResult{fingerprint: "a", quality: quality{optimal: 0.5}}
	out := newOutcome()
	checkPasses(out, ref, []passResult{ref, ref})
	if len(out.problems) != 0 {
		t.Fatalf("identical passes flagged: %v", out.problems)
	}
	other := ref
	other.quality.top2 = 0.9
	checkPasses(out, ref, []passResult{ref, other, {fingerprint: "b"}})
	if len(out.problems) != 2 {
		t.Errorf("got %d problems, want 2: %v", len(out.problems), out.problems)
	}
}

// TestWrongOutputFailsTheRun checks that an oracle failure turns into
// "correct": false and a non-zero exit.
func TestWrongOutputFailsTheRun(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{"tampered", func(context.Context, config) (*outcome, error) {
		out := newOutcome()
		for _, m := range endToEnd {
			out.timed(m.name, 1, since(time.Now()))
		}
		out.attempted = 1
		out.problemf("request body 0: summary 3: recommended 1024 MB, in-process predictor 512 MB")
		return out, nil
	}}}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-workload", "tampered", "-dir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 for a wrong output; stderr: %s", stderr.String())
	}
	if r := lastJSON(t, stdout.String()); r.Correct {
		t.Errorf("result %+v marked correct", r)
	}
}

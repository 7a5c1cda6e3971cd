package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
)

// The shared predictor/dataset are trained once: every daemon test only
// reads them, and training dominates the package's test time.
var (
	testOnce sync.Once
	testPred *sizeless.Predictor
	testDS   *sizeless.Dataset
	testErr  error
)

func testPredictor(t testing.TB) *sizeless.Predictor {
	t.Helper()
	testOnce.Do(func() {
		testDS, testErr = sizeless.GenerateDataset(context.Background(),
			sizeless.WithFunctions(40),
			sizeless.WithRate(10),
			sizeless.WithDuration(5*time.Second),
			sizeless.WithSeed(21),
		)
		if testErr != nil {
			return
		}
		testPred, testErr = sizeless.TrainPredictor(context.Background(), testDS,
			sizeless.WithHidden(24, 24),
			sizeless.WithEpochs(120),
		)
	})
	if testErr != nil {
		t.Fatalf("training test predictor: %v", testErr)
	}
	return testPred
}

func testDataset(t testing.TB) *sizeless.Dataset {
	t.Helper()
	testPredictor(t)
	return testDS
}

// startServer runs a daemon on an ephemeral port and tears it down with the
// test; the returned base URL points at the bound listener.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Predictor == nil {
		cfg.Predictor = testPredictor(t)
	}
	cfg.Addr = "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	select {
	case <-srv.Started():
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server did not start")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run returned %v on a clean shutdown", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("Run did not return after cancellation")
		}
	})
	return srv, "http://" + srv.Addr()
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, out)
		}
	}
	return resp.StatusCode
}

func TestServeIngestFleetStatusHealth(t *testing.T) {
	srv, base := startServer(t, Config{
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
	})

	batch := fleetsynth.Batch(6, 120, 1, 1)
	code, body := postJSON(t, base+"/v1/ingest", IngestRequest{Windows: batch})
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d, want 202: %s", code, body)
	}
	var ack IngestResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.QueuedFunctions != 6 || ack.QueuedInvocations != 6*120 || ack.QueuedBytes <= 0 {
		t.Errorf("ack = %+v, want 6 functions, 720 invocations, positive bytes", ack)
	}
	srv.Drain()

	var fleet FleetResponse
	if code := getJSON(t, base+"/v1/fleet", &fleet); code != http.StatusOK {
		t.Fatalf("fleet = %d, want 200", code)
	}
	if len(fleet.Functions) != 6 || fleet.Summary.Functions != 6 {
		t.Fatalf("fleet tracks %d/%d functions, want 6", len(fleet.Functions), fleet.Summary.Functions)
	}
	for _, st := range fleet.Functions {
		if !st.HasRecommendation || st.Observed != 120 {
			t.Errorf("%s: %+v, want a recommendation at 120 observed", st.FunctionID, st)
		}
	}

	var st struct {
		FunctionID        string
		HasRecommendation bool
	}
	if code := getJSON(t, base+"/v1/status?function=fleet-fn-0000", &st); code != http.StatusOK {
		t.Errorf("status = %d, want 200", code)
	} else if st.FunctionID != "fleet-fn-0000" || !st.HasRecommendation {
		t.Errorf("status = %+v", st)
	}
	if code := getJSON(t, base+"/v1/status?function=never-seen", nil); code != http.StatusNotFound {
		t.Errorf("unknown function status = %d, want 404", code)
	}
	if code := getJSON(t, base+"/v1/status", nil); code != http.StatusBadRequest {
		t.Errorf("missing function param = %d, want 400", code)
	}

	var health Health
	if code := getJSON(t, base+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if health.Status != "ok" || health.AcceptedJobs != 6 || health.IngestedJobs != 6 ||
		health.IngestErrors != 0 || len(health.ModelFingerprint) != 16 {
		t.Errorf("health = %+v", health)
	}
	for _, q := range health.Queues {
		if q.Depth != 0 || q.PendingBytes != 0 {
			t.Errorf("shard %d not drained: %+v", q.Shard, q)
		}
	}

	// Malformed requests are rejected before touching the queues.
	code, _ = postJSON(t, base+"/v1/ingest", IngestRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty ingest = %d, want 400", code)
	}
	code, _ = postJSON(t, base+"/v1/ingest", map[string]any{"windows": map[string]any{"": []any{}}})
	if code != http.StatusBadRequest {
		t.Errorf("empty function ID = %d, want 400", code)
	}
	code, _ = postJSON(t, base+"/v1/ingest", map[string]any{"nope": 1})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
}

func TestServeRecommendEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	pred := testPredictor(t)
	ds := testDataset(t)
	sums := []monitoring.Summary{
		ds.Rows[0].Summaries[pred.Base()],
		ds.Rows[1].Summaries[pred.Base()],
	}

	code, body := postJSON(t, base+"/v1/recommend", RecommendRequest{Summaries: sums})
	if code != http.StatusOK {
		t.Fatalf("recommend = %d: %s", code, body)
	}
	var out RecommendResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recommendations) != 2 {
		t.Fatalf("%d recommendations, want 2", len(out.Recommendations))
	}
	for i, rec := range out.Recommendations {
		if !platform.DefaultConfig().ValidSize(rec.Best) {
			t.Errorf("recommendation %d has no valid best size: %+v", i, rec)
		}
	}

	// A per-request tradeoff override rides the predictor path.
	zero := 0.0
	code, body = postJSON(t, base+"/v1/recommend", RecommendRequest{Summaries: sums, Tradeoff: &zero})
	if code != http.StatusOK {
		t.Fatalf("recommend t=0 = %d: %s", code, body)
	}

	code, _ = postJSON(t, base+"/v1/recommend", RecommendRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty recommend = %d, want 400", code)
	}
}

// TestServeBackpressure is the acceptance criterion: a saturated shard
// queue rejects the whole request with 429 + Retry-After, errors.Is
// matches ErrQueueFull on the embedded path, and the queue's occupancy
// never exceeds its configured bounds.
func TestServeBackpressure(t *testing.T) {
	srv, base := startServer(t, Config{
		// One shard funnels every function through one queue; depth 2 makes
		// a 3-function request over-capacity no matter how fast the drainer
		// runs, because admission is all-or-nothing under the queue lock.
		ServiceOptions: []sizeless.Option{sizeless.WithShards(1), sizeless.WithMinWindow(50)},
		QueueDepth:     2,
		RetryAfter:     3 * time.Second,
	})

	batch := fleetsynth.Batch(3, 60, 2, 1)
	resp, err := http.Post(base+"/v1/ingest", "application/json",
		bytes.NewReader(mustMarshal(t, IngestRequest{Windows: batch})))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity ingest = %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body %q does not explain the saturation", body)
	}

	// Rejection is all-or-nothing: nothing landed, bounds hold.
	for _, q := range srv.queueStatuses() {
		if q.Depth > q.Capacity || q.PendingBytes > q.MaxBytes {
			t.Errorf("shard %d exceeded its bounds: %+v", q.Shard, q)
		}
	}
	var health Health
	getJSON(t, base+"/v1/healthz", &health)
	if health.RejectedBatches != 1 || health.AcceptedJobs != 0 {
		t.Errorf("health after rejection = %+v, want 1 rejected, 0 accepted", health)
	}

	// The embedded path surfaces the sentinel and the saturation details.
	jobs := make([]job, 0, 3)
	for fn, invs := range batch {
		jobs = append(jobs, newJob(fn, invs))
	}
	err = srv.enqueueBatch(jobs)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("errors.Is(err, ErrQueueFull) = false for %v", err)
	}
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("errors.As(*QueueFullError) = false for %v", err)
	}
	if full.Shard != 0 || full.Capacity != 2 {
		t.Errorf("QueueFullError = %+v, want shard 0, capacity 2", full)
	}

	// A request that fits is accepted once the queue has room.
	two := fleetsynth.Batch(2, 60, 2, 1)
	code, body2 := postJSON(t, base+"/v1/ingest", IngestRequest{Windows: two})
	if code != http.StatusAccepted {
		t.Fatalf("in-capacity ingest = %d, want 202: %s", code, body2)
	}
	srv.Drain()
	if got := srv.svc.Summarize().Functions; got != 2 {
		t.Errorf("tracked %d functions, want 2", got)
	}
}

// TestServeBatchTooLarge maps a request that could never fit — its windows
// alone exceed a shard's byte budget — to 413, not 429.
func TestServeBatchTooLarge(t *testing.T) {
	_, base := startServer(t, Config{
		ServiceOptions: []sizeless.Option{sizeless.WithShards(1)},
		QueueBytes:     2 * invocationBytes, // a 60-invocation window can never fit
	})
	code, body := postJSON(t, base+"/v1/ingest", IngestRequest{Windows: fleetsynth.Batch(1, 60, 3, 1)})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413: %s", code, body)
	}
}

// TestServeIngestRejectsInvalidWindow pins ingest admission: a request
// carrying a window that fails monitoring.ValidateWindow is refused whole
// with 400, naming the function and the invocation. JSON cannot carry NaN,
// so 1e308 stands in for a non-finite value.
func TestServeIngestRejectsInvalidWindow(t *testing.T) {
	srv, base := startServer(t, Config{})
	batch := fleetsynth.Batch(6, 30, 9, 1)
	batch["fleet-fn-0004"][1].Metrics[monitoring.ExecutionTime] = 1e308
	batch["fleet-fn-0002"][7].Metrics[monitoring.HeapUsed] = 1e308
	code, body := postJSON(t, base+"/v1/ingest", IngestRequest{Windows: batch})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid ingest = %d, want 400: %s", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, `"fleet-fn-0002"`) || !strings.Contains(er.Error, "invocation 7") {
		t.Errorf("error = %q, want it to name fleet-fn-0002 and invocation 7", er.Error)
	}
	srv.Drain()
	if fleet := srv.Service().Fleet(); len(fleet) != 0 {
		t.Errorf("rejected request committed %d functions", len(fleet))
	}
}

// TestServeShutdownDrainsAcceptedWindows pins the graceful-stop contract:
// windows acknowledged with 202 before the shutdown are committed to the
// service and captured by the final snapshot, not dropped with the queues.
func TestServeShutdownDrainsAcceptedWindows(t *testing.T) {
	path := t.TempDir() + "/fleet.snap"
	cfg := Config{
		Predictor:      testPredictor(t),
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		SnapshotPath:   path,
		Addr:           "127.0.0.1:0",
		Logf:           t.Logf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	<-srv.Started()

	code, body := postJSON(t, "http://"+srv.Addr()+"/v1/ingest",
		IngestRequest{Windows: fleetsynth.Batch(5, 80, 4, 1)})
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	cancel() // no Drain: shutdown itself must flush the queues
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
	}

	restoredSrv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := restoredSrv.Service().Fleet()
	if len(fleet) != 5 {
		t.Fatalf("restored fleet has %d functions, want 5", len(fleet))
	}
	for _, st := range fleet {
		if st.Observed != 80 {
			t.Errorf("%s: observed %d after shutdown drain, want 80", st.FunctionID, st.Observed)
		}
	}
}

// TestDrainShardAfterCancelCommitsDequeuedWindows pins the drainer's side
// of the graceful-stop contract: a drainer woken after cancellation may
// still dequeue a window (select picks among ready cases at random), and
// that window must be committed, not handed to Ingest under the cancelled
// ctx and dropped. Whatever it leaves queued is the shutdown sweep's.
func TestDrainShardAfterCancelCommitsDequeuedWindows(t *testing.T) {
	srv, err := New(Config{
		Predictor:      testPredictor(t),
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const rounds, perWindow = 20, 10
	windows := fleetsynth.Batch(64, perWindow, 3, 1)
	for round := 0; round < rounds; round++ {
		jobs := make([]job, 0, len(windows))
		for fn, invs := range windows {
			jobs = append(jobs, newJob(fn, append([]monitoring.Invocation(nil), invs...)))
		}
		if err := srv.enqueueBatch(jobs); err != nil {
			t.Fatal(err)
		}
		for si := range srv.queues {
			srv.drainShard(ctx, si)
		}
		if n := srv.ingestErrors.Load(); n != 0 {
			t.Fatalf("round %d: %d dequeued windows failed to ingest after cancellation: %v",
				round, n, srv.lastErrors)
		}
		srv.sweepQueues(ctx)
	}
	for _, st := range srv.Service().Fleet() {
		if st.Observed != rounds*perWindow {
			t.Errorf("%s: observed %d, want %d", st.FunctionID, st.Observed, rounds*perWindow)
		}
	}
}

// TestServeCancelRightAfterStartReturns pins that Run stops however early
// it is cancelled: a cancel that lands before the pool has started every
// long-lived task must still shut the HTTP server down.
func TestServeCancelRightAfterStartReturns(t *testing.T) {
	pred := testPredictor(t)
	for i := 0; i < 50; i++ {
		srv, err := New(Config{Predictor: pred, Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Run(ctx) }()
		<-srv.Started()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: Run = %v, want nil", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d: Run did not return after cancel", i)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

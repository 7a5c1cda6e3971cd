package sizeless_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/core"
	"sizeless/internal/experiments"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/serve"
	"sizeless/internal/xrand"
)

// The golden constants below pin the per-seed behaviour contract: seeded
// measurement campaigns (a dataset CSV, Fig. 1, the case studies, the app
// matrix), the scenario matrix, a seeded dataset → train → recommend run,
// a seeded fleet-synthesis run and a seeded fleet snapshot must reproduce
// these exact bytes. A change to any kernel summation order, RNG
// derivation, serialization or warm-pool rule shows up here first. Update
// a constant only for a change that is meant to alter seeded output, and
// say so in the change description.
const (
	goldenFingerprint   = "c02f7c9d05b7dc7e"
	goldenRecommendSHA  = "380902b0cbc3e57868c64e089c295349afcd6cf071d817582a41cc91b0d5b220"
	goldenStreamSHA     = "9809f8fb9e867386c04cb638a5e016d26a1dfc74dc313ae0d94b3790e198b837"
	goldenStreamColdCnt = 80
	goldenPredictSHA    = "b6350ad57c158b50159457408910c7f199f525d4578e4c73b9f4ac31523e7d9e"
	goldenFleetSHA      = "6e6cd3f36a6fd00c1700b114155e81f35dc0de3c6bab40528214bd7e6a29cf82"
	goldenDatasetCSVSHA = "fea5fe8f3021ce96d0b6d57e218a51553e8d796688ff1fbec8defe382bad079d"
	goldenMotivatingSHA = "4f986b7f0d47ae9c8af5fa0c46311c4893d47952adf45eab6e6d21d5acdf1ac0"
	goldenAppMatrixSHA  = "c7b07245a0a61723f3a21278d1d806f64e608a2d1a22d0189163487242b85bd1"
	goldenCaseStudySHA  = "ab8f7319731e228968812eb0149b3d0936a6ac3f7e86c8ec64c20c74c25df6bf"
	goldenSnapshotSHA   = "a65eff474b8b66486b659c2fd27e3b6ffa3390005bbc2d95db1baded8206aef8"
	goldenScenarioSHA   = "a3d04756f0363f58df8a21f6552424d4246da18692eea0d60d5f2d331f166abe"
	goldenGridSearchSHA = "168fbaae0c4a16e40a52bc5c887334e8b60928cc17bffb2e717120ed4b695f43"
	goldenSFSMSE        = 8.244502012292719

	// Early-stopped training and adaptation: every member holds a
	// validation split out, stops on patience and keeps its best weights.
	goldenEarlyStopFingerprint = "fb80ac2236194e58"
	goldenAdaptFingerprint     = "9b9a12b2d8479f51"
	goldenAdaptEpochsSpent     = 15
	goldenAdaptEarlyStopped    = true

	// Training at the paper's 4 × 256 shape, ensemble of 3.
	goldenPaperShapeFingerprint = "2e3e29c42b8f387d"
)

// goldenColdFractions are the exact ColdFraction values for the golden
// schedule under a fixed service time and keep-alive window.
var goldenColdFractions = []struct {
	service, keepAlive time.Duration
	want               float64
}{
	{200 * time.Millisecond, 0, 0.017793594306049824},
	{200 * time.Millisecond, 500 * time.Millisecond, 0.1494661921708185},
	{50 * time.Millisecond, 2 * time.Second, 0.023131672597864767},
	{1500 * time.Millisecond, 100 * time.Millisecond, 0.4288256227758007},
}

// goldenTrainSet is the seeded training dataset every predictor golden
// test starts from.
func goldenTrainSet(t *testing.T) *sizeless.Dataset {
	t.Helper()
	train, err := sizeless.GenerateDataset(context.Background(),
		sizeless.WithFunctions(20),
		sizeless.WithRate(5),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func TestGoldenDatasetCSVPerSeed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrainSet(t).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != goldenDatasetCSVSHA {
		t.Errorf("dataset CSV sha256 = %s, want %s", got, goldenDatasetCSVSHA)
	}
}

// TestGoldenMotivatingPerSeed pins the rendered Fig. 1 sweep.
func TestGoldenMotivatingPerSeed(t *testing.T) {
	res, err := experiments.MotivatingExample(context.Background(), experiments.NewLab(experiments.SmallScale()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex([]byte(res.Render())); got != goldenMotivatingSHA {
		t.Errorf("MotivatingExample render sha256 = %s, want %s", got, goldenMotivatingSHA)
	}
}

// TestGoldenAppMatrixPerSeed pins the rendered app matrix over the three
// built-in providers.
func TestGoldenAppMatrixPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("app matrix measures every case-study function on three providers")
	}
	res, err := experiments.AppMatrix(context.Background(), experiments.NewLab(experiments.SmallScale()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex([]byte(res.Render())); got != goldenAppMatrixSHA {
		t.Errorf("AppMatrix render sha256 = %s, want %s", got, goldenAppMatrixSHA)
	}
}

// TestGoldenScenarioMatrixPerSeed pins the rendered scenario matrix, the
// one experiment that runs the recommender's drift loop over
// fleetsynth.Stream.
func TestGoldenScenarioMatrixPerSeed(t *testing.T) {
	res, err := experiments.ScenarioMatrix(context.Background(), experiments.NewLab(experiments.SmallScale()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex([]byte(res.Render())); got != goldenScenarioSHA {
		t.Errorf("ScenarioMatrix render sha256 = %s, want %s", got, goldenScenarioSHA)
	}
}

// TestGoldenCaseStudiesPerSeed pins the repeated case-study measurements
// that Fig. 6 and Tables 4–8 predict against: every function's summary at
// every size, in app and declaration order.
func TestGoldenCaseStudiesPerSeed(t *testing.T) {
	lab := experiments.NewLab(experiments.SmallScale())
	studies, err := lab.CaseStudies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, cs := range studies {
		for i, spec := range cs.App.Functions {
			for _, m := range lab.Sizes() {
				raw, err := json.Marshal(cs.Rows[i].Summaries[m])
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s/%s@%v %s\n", cs.App.Name, spec.Name, m, raw)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCaseStudySHA {
		t.Errorf("case-study summaries sha256 = %s, want %s", got, goldenCaseStudySHA)
	}
}

func TestGoldenPredictorPerSeed(t *testing.T) {
	ctx := context.Background()
	pred, err := sizeless.TrainPredictor(ctx, goldenTrainSet(t),
		sizeless.WithHidden(33, 17),
		sizeless.WithEpochs(60),
		sizeless.WithEnsembleSize(2),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != goldenFingerprint {
		t.Errorf("model fingerprint = %s, want %s", fp, goldenFingerprint)
	}

	heldOut, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(6),
		sizeless.WithRate(5),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(12),
	)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]sizeless.Summary, 0, len(heldOut.Rows))
	for _, row := range heldOut.Rows {
		sums = append(sums, row.Summaries[pred.Base()])
	}
	recs, err := pred.RecommendBatch(ctx, sums, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(raw); got != goldenRecommendSHA {
		t.Errorf("RecommendBatch output sha256 = %s, want %s", got, goldenRecommendSHA)
	}
	// The batch is the per-row path, bit for bit.
	for i, s := range sums {
		rec, err := pred.Recommend(s, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs[i], rec) {
			t.Errorf("RecommendBatch row %d = %+v, Recommend = %+v", i, recs[i], rec)
		}
	}

	// The single-row path: one Predict call per held-out summary.
	single := make([]map[sizeless.MemorySize]float64, len(sums))
	for i, s := range sums {
		if single[i], err = pred.Predict(s); err != nil {
			t.Fatal(err)
		}
	}
	if raw, err = json.Marshal(single); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(raw); got != goldenPredictSHA {
		t.Errorf("Predict output sha256 = %s, want %s", got, goldenPredictSHA)
	}

	// The fleet path: seeded fleetsynth windows through the continuous
	// service. The third round scales every metric 3× so drift fires and
	// functions recompute. One worker keeps the first-seen order, and so
	// the Fleet listing, deterministic.
	svc, err := pred.NewService(sizeless.WithMinWindow(20), sizeless.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for round, scale := range []float64{1, 1, 3} {
		batch := fleetsynth.Batch(8, 30, int64(31+round), scale)
		if _, err := svc.IngestBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if raw, err = json.Marshal(svc.Fleet()); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(raw); got != goldenFleetSHA {
		t.Errorf("Fleet JSON sha256 = %s, want %s", got, goldenFleetSHA)
	}
}

// TestGoldenPaperShapePerSeed pins a model trained at the paper's shape,
// four hidden layers of 256, an ensemble of three, for a few epochs. The
// other predictor pins train narrow layers; this one runs the training
// kernels at the width every served model has. Its 38 training rows make
// a full batch of 32 and a last batch of 6, whose final two rows fall
// outside the four-row blocks.
func TestGoldenPaperShapePerSeed(t *testing.T) {
	ctx := context.Background()
	train, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(38),
		sizeless.WithRate(5),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(train.Rows); n%32%4 == 0 {
		t.Fatalf("%d training rows leave no remainder rows in the last batch", n)
	}
	pred, err := sizeless.TrainPredictor(ctx, train,
		sizeless.WithHidden(256, 256, 256, 256),
		sizeless.WithEpochs(4),
		sizeless.WithEnsembleSize(3),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != goldenPaperShapeFingerprint {
		t.Errorf("paper-shape model fingerprint = %s, want %s", fp, goldenPaperShapeFingerprint)
	}
}

// TestGoldenEarlyStoppingPerSeed pins the validated paths: a three-member
// TrainPredictor that stops on patience, and an Adapt of it that stops on
// patience too, with the epochs the adaptation spent.
func TestGoldenEarlyStoppingPerSeed(t *testing.T) {
	ctx := context.Background()
	pred, err := sizeless.TrainPredictor(ctx, goldenTrainSet(t),
		sizeless.WithHidden(24, 12),
		sizeless.WithEpochs(120),
		sizeless.WithEnsembleSize(3),
		sizeless.WithSeed(11),
		sizeless.WithEarlyStopping(4),
		sizeless.WithValidationSplit(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != goldenEarlyStopFingerprint {
		t.Errorf("early-stopped model fingerprint = %s, want %s", fp, goldenEarlyStopFingerprint)
	}

	adaptSet, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(8),
		sizeless.WithRate(5),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(13),
	)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := pred.Adapt(ctx, adaptSet,
		sizeless.WithFineTuneEpochs(150),
		sizeless.WithEarlyStopping(3),
		sizeless.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if fp, err = adapted.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if fp != goldenAdaptFingerprint {
		t.Errorf("early-stopped adapted fingerprint = %s, want %s", fp, goldenAdaptFingerprint)
	}
	prov := adapted.Provenance()
	if prov.EpochsSpent != goldenAdaptEpochsSpent || prov.EarlyStopped != goldenAdaptEarlyStopped {
		t.Errorf("adapted provenance spent %d epochs (early stopped %v), want %d (%v)",
			prov.EpochsSpent, prov.EarlyStopped, goldenAdaptEpochsSpent, goldenAdaptEarlyStopped)
	}
}

// TestGoldenSnapshotPerSeed pins the bytes of a fleet snapshot built from
// seeded fleetsynth windows, ingested two ways: POSTed to one daemon's
// /v1/ingest, and through a second daemon's Service in process. The two
// snapshots must be byte-identical, which also pins that the ingest
// decoder's floats are bit-exact end to end. The first round posts one
// function per request in sorted order, so that first-seen order, and
// with it the snapshot's record order, is fixed; later rounds post whole
// batches. The third round scales every metric 3× so drift fires.
func TestGoldenSnapshotPerSeed(t *testing.T) {
	ctx := context.Background()
	pred, err := sizeless.TrainPredictor(ctx, goldenTrainSet(t),
		sizeless.WithHidden(8),
		sizeless.WithEpochs(10),
		sizeless.WithEnsembleSize(1),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := []sizeless.Option{sizeless.WithMinWindow(20)}
	posted, err := serve.New(serve.Config{Predictor: pred, ServiceOptions: opts, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := serve.New(serve.Config{Predictor: pred, ServiceOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- posted.Run(runCtx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	<-posted.Started()

	for round, scale := range []float64{1, 1, 3} {
		batch := fleetsynth.Batch(8, 30, int64(41+round), scale)
		fns := make([]string, 0, len(batch))
		for fn := range batch {
			fns = append(fns, fn)
		}
		slices.Sort(fns)
		groups := []map[string][]monitoring.Invocation{batch}
		if round == 0 {
			groups = groups[:0]
			for _, fn := range fns {
				groups = append(groups, map[string][]monitoring.Invocation{fn: batch[fn]})
			}
		}
		for _, g := range groups {
			body, err := json.Marshal(serve.IngestRequest{Windows: g})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post("http://"+posted.Addr()+"/v1/ingest", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d: ingest = %d, want 202", round, resp.StatusCode)
			}
			posted.Drain()
		}
		for _, fn := range fns {
			if _, err := inProcess.Service().Ingest(ctx, fn, batch[fn]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var viaHTTP, direct bytes.Buffer
	if err := posted.WriteSnapshot(&viaHTTP); err != nil {
		t.Fatal(err)
	}
	if err := inProcess.WriteSnapshot(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), direct.Bytes()) {
		t.Errorf("snapshot after POST /v1/ingest differs from the in-process one (%d vs %d bytes)",
			viaHTTP.Len(), direct.Len())
	}
	if got := sha256Hex(viaHTTP.Bytes()); got != goldenSnapshotSHA {
		t.Errorf("snapshot sha256 = %s, want %s", got, goldenSnapshotSHA)
	}
}

// TestGoldenGridSearchPerSeed pins the exhaustive Table-2 search on a
// tiny grid: the ranked configurations and every bit of each CVMetrics
// field under 3-fold cross-validation.
func TestGoldenGridSearchPerSeed(t *testing.T) {
	base := core.DefaultModelConfig(sizeless.MemorySize(256))
	base.EnsembleSize = 1
	base.Seed = 11
	grid := core.GridSpec{
		Optimizers: []nn.Optimizer{nn.Adam, nn.SGD},
		Losses:     []nn.Loss{nn.MSE},
		Epochs:     []int{40},
		Neurons:    []int{10},
		L2s:        []float64{0},
		Layers:     []int{1, 2},
	}
	res, err := core.GridSearch(context.Background(), goldenTrainSet(t), base, grid, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range res {
		m := r.Metrics
		fmt.Fprintf(h, "%s/%s/%v/%d %x %x %x %x\n", r.Config.Optimizer, r.Config.Loss, r.Config.Hidden, r.Config.Epochs,
			math.Float64bits(m.MSE), math.Float64bits(m.MAPE), math.Float64bits(m.R2), math.Float64bits(m.ExpVar))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenGridSearchSHA {
		t.Errorf("GridSearch ranking sha256 = %s, want %s", got, goldenGridSearchSHA)
	}
}

// TestGoldenSFSPerSeed pins the MSE the sequential-forward-selection
// evaluator returns on a seeded matrix; it trains through
// nn.Network.Train, the entry point the feature-selection study and the
// ablations use.
func TestGoldenSFSPerSeed(t *testing.T) {
	rng := xrand.New(17).Derive("sfs-golden")
	x := make([][]float64, 36)
	y := make([][]float64, len(x))
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Uniform(1, 5), rng.NormFloat64()}
		y[i] = []float64{x[i][0] + 0.5*x[i][1], x[i][1] * x[i][2]}
	}
	cfg := core.DefaultModelConfig(sizeless.MemorySize(256))
	cfg.Hidden = []int{8}
	cfg.Loss = nn.MSE
	cfg.Epochs = 20
	cfg.Seed = 3
	mse, err := core.SFSEvaluator(context.Background(), cfg, 3, 5)(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mse != goldenSFSMSE {
		t.Errorf("SFSEvaluator MSE = %v, want %v", mse, goldenSFSMSE)
	}
}

func TestGoldenFleetSynthPerSeed(t *testing.T) {
	rng := xrand.New(21).Derive("golden")
	sched, err := loadgen.Poisson(20, 30*time.Second, rng.Derive("arrivals"))
	if err != nil {
		t.Fatal(err)
	}
	windows, err := fleetsynth.Stream(rng.Derive("metrics"), sched, fleetsynth.StreamConfig{
		Horizon:   30 * time.Second,
		Window:    5 * time.Second,
		KeepAlive: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	colds := 0
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for w, invs := range windows {
		put(uint64(w))
		put(uint64(len(invs)))
		for _, inv := range invs {
			put(uint64(inv.Start))
			put(uint64(inv.Duration))
			if inv.ColdStart {
				colds++
				put(1)
			} else {
				put(0)
			}
			for _, m := range inv.Metrics {
				put(math.Float64bits(m))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStreamSHA {
		t.Errorf("Stream output sha256 = %s, want %s", got, goldenStreamSHA)
	}
	if colds != goldenStreamColdCnt {
		t.Errorf("Stream cold starts = %d, want %d", colds, goldenStreamColdCnt)
	}

	for _, c := range goldenColdFractions {
		if got := fleetsynth.ColdFraction(sched, c.service, c.keepAlive); got != c.want {
			t.Errorf("ColdFraction(service=%v, keepAlive=%v) = %v, want %v", c.service, c.keepAlive, got, c.want)
		}
	}
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

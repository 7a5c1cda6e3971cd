package sizeless_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/loadgen"
	"sizeless/internal/xrand"
)

// The golden constants below pin the per-seed behaviour contract: a seeded
// dataset → train → recommend run and a seeded fleet-synthesis run must
// reproduce these exact bytes. A change to any kernel summation order, RNG
// derivation, serialization or warm-pool rule shows up here first. Update
// a constant only for a change that is meant to alter seeded output, and
// say so in the change description.
const (
	goldenFingerprint   = "c02f7c9d05b7dc7e"
	goldenRecommendSHA  = "9462b1338306fdb1a775d9f3d5511cc70fbada4733a71baac607945ea076ca1e"
	goldenStreamSHA     = "9809f8fb9e867386c04cb638a5e016d26a1dfc74dc313ae0d94b3790e198b837"
	goldenStreamColdCnt = 80
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

func TestGoldenPredictorPerSeed(t *testing.T) {
	ctx := context.Background()
	train, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(20),
		sizeless.WithRate(5),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sizeless.TrainPredictor(ctx, train,
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

package serve

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
)

// TestAdaptLoopSwapsModelOnDriftQuorum drives the unattended §5 cycle end
// to end: a fleet-wide workload shift trips the drift quorum, the daemon
// fine-tunes on the adaptation dataset with early stopping, and the
// service's one serving model is swapped live.
func TestAdaptLoopSwapsModelOnDriftQuorum(t *testing.T) {
	srv, base := startServer(t, Config{
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		Adapt: AdaptConfig{
			Source:   func(context.Context) (*sizeless.Dataset, error) { return testDS, nil },
			Interval: 50 * time.Millisecond,
			Quorum:   0.25,
			Patience: 3,
			Options: []sizeless.Option{
				sizeless.WithFineTuneEpochs(12),
				sizeless.WithSeed(5),
			},
		},
	})
	origFP, err := srv.cfg.Predictor.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Establish recommendations, then shift the whole fleet: every function
	// recomputes, which is exactly the quorum signal.
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(6, 120, 31, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(6, 120, 32, 4)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Service().Summarize().Recomputations; got == 0 {
		t.Fatal("shifted traffic triggered no recomputations; quorum can never fire")
	}

	deadline := time.Now().Add(30 * time.Second)
	for srv.adaptations.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if srv.adaptations.Load() == 0 {
		t.Fatal("drift quorum never triggered an adaptation")
	}

	adapted := srv.cfg.Predictor.Serving(srv.Service())
	adaptedFP, err := adapted.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if adaptedFP == origFP {
		t.Error("serving model was not swapped: fingerprint identical to the original")
	}
	prov := adapted.Provenance()
	if !prov.EarlyStopped && prov.EpochsSpent >= prov.Epochs && prov.Epochs > 12 {
		t.Errorf("adaptation ignored the early-stopping budget: %+v", prov)
	}

	var health Health
	if code := getJSON(t, base+"/v1/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Adaptations < 1 || health.ModelFingerprint != adaptedFP {
		t.Errorf("health = adaptations %d, fingerprint %s; want >=1 and %s",
			health.Adaptations, health.ModelFingerprint, adaptedFP)
	}

	// The service recomputes on the adapted model from here on: another
	// shift must still produce recommendations (the swap kept base and
	// grid compatible).
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(6, 120, 33, 8)); err != nil {
		t.Fatalf("ingest after swap: %v", err)
	}
}

// TestAdaptConfigValidation: New rejects a quorum outside (0,1] up front.
// A quorum above 1 can never fire, a NaN one fires on any four drifted
// functions (every comparison with NaN is false), and a negative one would
// silently become the 0.25 default.
func TestAdaptConfigValidation(t *testing.T) {
	for _, q := range []float64{1.5, -0.5, math.NaN()} {
		_, err := New(Config{
			Predictor: testPredictor(t),
			Adapt: AdaptConfig{
				Source: func(context.Context) (*sizeless.Dataset, error) { return testDS, nil },
				Quorum: q,
			},
		})
		if err == nil {
			t.Errorf("New accepted quorum %v", q)
		}
	}
}

// TestAdaptFailureKeepsServing: a failing adaptation source must not kill
// the daemon or the serving model — the loop degrades to "keep serving",
// and the failure is recorded for /v1/healthz.
func TestAdaptFailureKeepsServing(t *testing.T) {
	srv, base := startServer(t, Config{
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		Adapt: AdaptConfig{
			Source: func(context.Context) (*sizeless.Dataset, error) {
				return nil, context.DeadlineExceeded
			},
			Interval: 30 * time.Millisecond,
			Quorum:   0.1,
		},
	})
	ctx := context.Background()
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(4, 120, 41, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(4, 120, 42, 4)); err != nil {
		t.Fatal(err)
	}
	var health Health
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, base+"/v1/healthz", &health); code != 200 {
			t.Fatalf("healthz after adapt failure = %d", code)
		}
		if len(health.LastErrors) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(health.LastErrors) == 0 || !strings.Contains(health.LastErrors[0], "adaptation dataset") {
		t.Fatalf("recorded errors %q, want the failed adaptation source", health.LastErrors)
	}
	if srv.adaptations.Load() != 0 {
		t.Error("failed source still counted an adaptation")
	}
	// The daemon keeps answering.
	if health.Status != "ok" {
		t.Errorf("health status = %q", health.Status)
	}
}

// TestAdaptRefusesProviderChange: the service prices with the provider it
// was built for, so a model adapted to another provider must not be
// swapped in to be priced with the wrong prices.
func TestAdaptRefusesProviderChange(t *testing.T) {
	srv, _ := startServer(t, Config{
		Adapt: AdaptConfig{
			Source:   func(context.Context) (*sizeless.Dataset, error) { return testDS, nil },
			Interval: time.Hour,
			Options: []sizeless.Option{
				sizeless.WithProvider(sizeless.GCPCloudFunctions()),
				sizeless.WithFineTuneEpochs(2),
			},
		},
	})
	origFP, err := srv.cfg.Predictor.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	err = srv.adaptOnce(context.Background(), srv.cfg.Adapt.withDefaults())
	if err == nil || !strings.Contains(err.Error(), "gcp-cloudfunctions") {
		t.Fatalf("adaptOnce = %v, want a refused provider change", err)
	}
	fp, err := srv.cfg.Predictor.Serving(srv.Service()).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != origFP || srv.adaptations.Load() != 0 {
		t.Errorf("serving %s after %d adaptations, want the original %s and none", fp, srv.adaptations.Load(), origFP)
	}
}

package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/monitoring"
)

// fuzzSeedSnapshot writes a real snapshot small enough that every
// truncation of it can seed FuzzReadSnapshot: a one-member 4-neuron model
// and one function whose 20-invocation baseline earned a recommendation,
// plus a one-invocation pending window. Small integer metrics keep each
// invocation's JSON short.
func fuzzSeedSnapshot(f *testing.F) []byte {
	f.Helper()
	pred, err := sizeless.TrainPredictor(context.Background(), testDataset(f),
		sizeless.WithHidden(4), sizeless.WithEpochs(2), sizeless.WithEnsembleSize(1))
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{
		Predictor:      pred,
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(20)},
	})
	if err != nil {
		f.Fatal(err)
	}
	invs := make([]monitoring.Invocation, 21)
	for i := range invs {
		invs[i].Start = time.Duration(i)
		invs[i].Duration = time.Duration(1 + i%3)
		for m := range invs[i].Metrics {
			invs[i].Metrics[m] = float64(1 + (i+m)%4)
		}
	}
	ctx := context.Background()
	for _, w := range [][]monitoring.Invocation{invs[:20], invs[20:]} {
		if _, err := srv.Service().Ingest(ctx, "fn", w); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srv.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot checks that ReadSnapshot never panics, that every
// function record it accepts has an ID, and that restoring an accepted
// snapshot into a fresh service either succeeds or leaves it empty.
func FuzzReadSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	// A header whose count would size a multi-exabyte allocation.
	f.Add([]byte(`{"magic":"sizeless-fleet-snapshot","version":1,"functions":4000000000000000000}` + "\n{}\n"))
	pred := testPredictor(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		for _, fn := range snap.Functions {
			if fn.Status.FunctionID == "" {
				t.Fatal("accepted function record with empty ID")
			}
		}
		svc, err := pred.NewService()
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Import(snap.Functions); err != nil {
			if got := svc.Summarize().Functions; got != 0 {
				t.Fatalf("failed import left %d functions behind", got)
			}
		}
	})
}

package recommender

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

// stagedRounds is a seeded sequence of fleet batches that walks every
// outcome of the ingest state machine: initial recommendations, buffering
// below MinWindow and accumulating onto a buffered window, stationary
// windows, a 3× drift round that recomputes, a NaN-poisoned window, an
// empty window for an unknown and for a known function, a full window
// under the empty function ID, and a window whose execution time is all
// zero, so its recompute fails.
func stagedRounds() []map[string][]monitoring.Invocation {
	rng := xrand.New(53)
	var rounds []map[string][]monitoring.Invocation
	for r, scale := range []float64{1, 1, 3, 1, 1} {
		rounds = append(rounds, fleetsynth.Batch(12, 30, int64(61+r), scale))
	}
	// Round 0 starts a function below MinWindow, round 1 completes it.
	rounds[0]["partial"] = fleetsynth.Window(rng.Derive("partial-a"), 12, 1)
	rounds[1]["partial"] = fleetsynth.Window(rng.Derive("partial-b"), 12, 1)
	// Round 2: a window large enough to recommend on, under an ID that
	// must never be registered.
	rounds[2][""] = fleetsynth.Window(rng.Derive("no-id"), 30, 1)
	// Round 3: one NaN invocation, an empty window for an unknown
	// function and one for a known function.
	rounds[3]["fleet-fn-0004"][5].Metrics[monitoring.ExecutionTime] = math.NaN()
	rounds[3]["ghost"] = nil
	rounds[3]["fleet-fn-0007"] = nil
	// Round 4: a new function whose first window never ran.
	zero := fleetsynth.Window(rng.Derive("zero"), 30, 1)
	for i := range zero {
		zero[i].Metrics[monitoring.ExecutionTime] = 0
	}
	rounds[4]["zero-time"] = zero
	return rounds
}

// TestIngestBatchMatchesIngest holds the staged IngestBatch to Ingest
// called per function in sorted-ID order: after every round the same
// statuses and the same first error, and at the end the same Fleet JSON,
// at one worker and at two.
func TestIngestBatchMatchesIngest(t *testing.T) {
	ctx := context.Background()
	model := testModel(t)
	rounds := stagedRounds()

	ref, err := New(model, Config{MinWindow: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := make([]map[string]Status, len(rounds))
	wantErr := make([]string, len(rounds))
	for r, batch := range rounds {
		ids := make([]string, 0, len(batch))
		for id := range batch {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		wantOut[r] = make(map[string]Status)
		for _, id := range ids {
			st, err := ref.Ingest(ctx, id, batch[id])
			if err != nil {
				if wantErr[r] == "" {
					wantErr[r] = err.Error()
				}
				continue
			}
			wantOut[r][id] = st
		}
	}
	if wantErr[2] == "" || wantErr[3] == "" || wantErr[4] == "" {
		t.Fatalf("the poisoned rounds ingested cleanly: %q", wantErr)
	}
	wantFleet, err := json.Marshal(ref.Fleet())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		svc, err := New(model, Config{MinWindow: 20, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for r, batch := range rounds {
			out, err := svc.IngestBatch(ctx, batch)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != wantErr[r] {
				t.Errorf("workers=%d round %d: error %q, Ingest gave %q", workers, r, gotErr, wantErr[r])
			}
			if !reflect.DeepEqual(out, wantOut[r]) {
				t.Errorf("workers=%d round %d: statuses differ from Ingest's\n got %+v\nwant %+v", workers, r, out, wantOut[r])
			}
		}
		fleet, err := json.Marshal(svc.Fleet())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fleet, wantFleet) {
			t.Errorf("workers=%d: Fleet JSON differs from Ingest's\n got %s\nwant %s", workers, fleet, wantFleet)
		}
		if _, err := svc.Status(""); err == nil {
			t.Errorf("workers=%d: the empty function ID was registered", workers)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// FuzzRecommendRequest drives POST /v1/recommend's handler with arbitrary
// bodies: it must never panic, a 200 must carry one recommendation per
// request summary and answer a body with nothing but whitespace after its
// object, and anything else must be a 400, 413 or 422 with an
// ErrorResponse body.
func FuzzRecommendRequest(f *testing.F) {
	pred := testPredictor(f)
	ds := testDataset(f)
	srv, err := New(Config{Predictor: pred, MaxBodyBytes: 16 << 10})
	if err != nil {
		f.Fatal(err)
	}
	one, two := ds.Rows[0].Summaries[pred.Base()], ds.Rows[1].Summaries[pred.Base()]
	half := 0.5
	for _, req := range []RecommendRequest{
		{Summaries: []monitoring.Summary{one}},
		{Summaries: []monitoring.Summary{one, two}, Tradeoff: &half},
		{Summaries: []monitoring.Summary{{}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(append(body, " x"...))
	}
	for _, s := range []string{
		``, `null`, `{}`, `{"summaries":[]}`, `{"summaries":null}`, `{"summaries":[{}]} x`,
		`{"summaries":[{"N":1}],"tradeoff":-1}`, `{"summaries":[{"N":1}],"tradeoff":2}`,
		`{"summaries":[{"N":-5,"Mean":[1e308,-1e308],"Std":[1e308],"CoV":[-1e308]}]}`,
		`{"summaries":[{"Mean":[1e400]}]}`, `{"summaries":[{}],"extra":1}`,
		`{"summaries":[` + strings.Repeat(`{},`, 6000) + `{}]}`, // past MaxBodyBytes
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.handleRecommend(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var req RecommendRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("200 for a body the handler cannot decode: %v", err)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("200 for a body with data after the object (%v)", err)
			}
			var resp RecommendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			if len(resp.Recommendations) != len(req.Summaries) {
				t.Fatalf("%d recommendations for %d summaries", len(resp.Recommendations), len(req.Summaries))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d with body %q, want an ErrorResponse", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

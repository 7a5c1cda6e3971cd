package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"

	"sizeless"
	"sizeless/internal/dataset"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/recommender"
)

// newSnapshotServer builds an un-Run daemon with a populated fleet: eight
// functions with recommendations plus buffered sub-MinWindow pending
// windows, so a snapshot exercises statuses, baselines, and pending state.
func newSnapshotServer(t *testing.T, path string) *Server {
	t.Helper()
	srv, err := New(Config{
		Predictor:      testPredictor(t),
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		SnapshotPath:   path,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(8, 120, 11, 1)); err != nil {
		t.Fatal(err)
	}
	// A second, smaller batch stays pending below MinWindow.
	if _, err := srv.Service().IngestBatch(ctx, fleetsynth.Batch(8, 20, 12, 1)); err != nil {
		t.Fatal(err)
	}
	return srv
}

func fleetJSON(t *testing.T, srv *Server) []byte {
	t.Helper()
	b, err := json.Marshal(srv.Service().Fleet())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreByteIdentical is the tentpole acceptance criterion:
// snapshot → restart → restore reproduces Fleet() byte-for-byte, and the
// restored service resumes drift detection exactly where the original
// would have.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	path := t.TempDir() + "/fleet.snap"
	orig := newSnapshotServer(t, path)
	if err := orig.Snapshot(); err != nil {
		t.Fatal(err)
	}

	restored, err := New(Config{
		Predictor:      testPredictor(t),
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		SnapshotPath:   path,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.restored.Load() {
		t.Fatal("daemon did not restore from the snapshot")
	}
	if a, b := fleetJSON(t, orig), fleetJSON(t, restored); !bytes.Equal(a, b) {
		t.Fatalf("restored fleet differs:\n original: %s\n restored: %s", a, b)
	}
	origFP, err := orig.pred.Load().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	restFP, err := restored.pred.Load().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if origFP != restFP {
		t.Errorf("model fingerprint changed across restore: %s vs %s", origFP, restFP)
	}

	// Both services now receive the same shifted traffic. The restored one
	// must drift-detect against its restored baselines and land in exactly
	// the state the original reaches: byte-identical again, with the shift
	// actually forcing recomputations.
	ctx := context.Background()
	shifted := fleetsynth.Batch(8, 120, 13, 4)
	if _, err := orig.Service().IngestBatch(ctx, shifted); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Service().IngestBatch(ctx, shifted); err != nil {
		t.Fatal(err)
	}
	if a, b := fleetJSON(t, orig), fleetJSON(t, restored); !bytes.Equal(a, b) {
		t.Fatalf("fleets diverged after post-restore ingest:\n original: %s\n restored: %s", a, b)
	}
	if got := orig.Service().Summarize().Recomputations; got == 0 {
		t.Error("shifted traffic triggered no recomputations — drift resume not exercised")
	}
}

// TestSnapshotSecondImportRejected: restoring is only legal into an empty
// service; the underlying Import guards against silently merging fleets.
func TestSnapshotSecondImportRejected(t *testing.T) {
	srv := newSnapshotServer(t, t.TempDir()+"/fleet.snap")
	if err := srv.Service().Import(srv.Service().Export()); err == nil {
		t.Fatal("import into a tracking service should error")
	}
}

// TestReadSnapshotRejectsCorruption drives the parser through every
// corruption class: each must be rejected with an error naming the
// offending line or the CRC, never a silently partial fleet.
func TestReadSnapshotRejectsCorruption(t *testing.T) {
	srv := newSnapshotServer(t, t.TempDir()+"/fleet.snap")
	var buf bytes.Buffer
	if err := srv.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if snap, err := ReadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	} else if len(snap.Functions) != 8 {
		t.Fatalf("valid snapshot decoded %d functions, want 8", len(snap.Functions))
	}

	lines := bytes.SplitAfter(valid, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 { // SplitAfter leaves a trailing empty element
		lines = lines[:len(lines)-1]
	}
	rejoin := func(ls [][]byte) []byte { return bytes.Join(ls, nil) }

	corrupt := func(name string, data []byte, want string) {
		t.Helper()
		_, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}

	corrupt("empty input", nil, "line 1")
	corrupt("absurd function count",
		[]byte(`{"magic":"sizeless-fleet-snapshot","version":1,"functions":4000000000000000000}`+"\n{}\n"),
		"truncated snapshot")
	corrupt("bad magic",
		bytes.Replace(valid, []byte(snapshotMagic), []byte("not-a-snapshot"), 1), "magic")
	corrupt("future version",
		bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":9`), 1), "unsupported version")
	corrupt("truncated mid-function", valid[:len(valid)/2], "truncated snapshot")
	corrupt("unterminated last line", valid[:len(valid)-2], "unterminated line")
	corrupt("trailing garbage", append(append([]byte(nil), valid...), []byte("extra\n")...), "trailing garbage")

	// Flip one digit inside the model line: still valid JSON, so only the
	// trailer CRC can catch it.
	flipped := append([]byte(nil), valid...)
	modelStart := len(lines[0])
	flip := -1
	for i := modelStart; i < modelStart+len(lines[1]); i++ {
		if flipped[i] >= '1' && flipped[i] <= '8' {
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatal("no digit to flip in the model line")
	}
	flipped[flip]++
	corrupt("payload bit-flip", flipped, "CRC")

	// Trailer count disagreeing with the header reads as truncation.
	var tail snapshotTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil {
		t.Fatal(err)
	}
	tail.Functions++
	badTail, err := json.Marshal(tail)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := append([][]byte(nil), lines[:len(lines)-1]...)
	mismatch = append(mismatch, append(badTail, '\n'))
	corrupt("trailer count mismatch", rejoin(mismatch), "trailer count")

	// A function record with fields the schema does not know is rejected
	// with its line number (DisallowUnknownFields).
	unknown := append([][]byte(nil), lines...)
	rec := bytes.TrimSuffix(unknown[2], []byte("\n"))
	rec = append(bytes.TrimSuffix(rec, []byte("}")), []byte(`,"surprise":1}`)...)
	unknown[2] = append(rec, '\n')
	corrupt("unknown field in function record", rejoin(unknown), "line 3")
}

// TestRestoreMissingFileIsFreshStart: a daemon pointed at a snapshot path
// that does not exist yet simply starts empty.
func TestRestoreMissingFileIsFreshStart(t *testing.T) {
	srv, err := New(Config{
		Predictor:    testPredictor(t),
		SnapshotPath: t.TempDir() + "/does-not-exist.snap",
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.restored.Load() {
		t.Error("missing snapshot marked as restored")
	}
	if got := srv.Service().Summarize().Functions; got != 0 {
		t.Errorf("fresh daemon tracks %d functions", got)
	}
}

// TestRestoreRejectsCorruptFileAtStartup: New must refuse to come up on a
// corrupt snapshot rather than serving a partial fleet.
func TestRestoreRejectsCorruptFileAtStartup(t *testing.T) {
	path := t.TempDir() + "/fleet.snap"
	srv := newSnapshotServer(t, path)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Predictor: testPredictor(t), SnapshotPath: path, Logf: t.Logf})
	if err == nil {
		t.Fatal("New accepted a truncated snapshot")
	}
	if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "line") {
		t.Errorf("startup error %q carries no line context", err)
	}
}

// TestRestoreRejectsInvalidWindows: a snapshot with an intact CRC whose
// windows would fail ingest validation — a metric above 1e15 in a
// baseline, a negative Duration in a pending window — must fail restore
// rather than reach fleet state.
func TestRestoreRejectsInvalidWindows(t *testing.T) {
	srv := newSnapshotServer(t, t.TempDir()+"/fleet.snap")
	var buf bytes.Buffer
	if err := srv.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves a trailing empty element
	for _, tc := range []struct {
		name   string
		mutate func(*recommender.FunctionSnapshot)
		want   string
	}{
		{"metric above 1e15", func(fn *recommender.FunctionSnapshot) {
			fn.Baseline[3].Metrics[monitoring.HeapUsed] = 1e16
		}, "baseline: monitoring: invocation 3"},
		{"negative duration", func(fn *recommender.FunctionSnapshot) {
			fn.Pending[0].Duration = -1
		}, "pending: monitoring: invocation 0"},
	} {
		var fn recommender.FunctionSnapshot
		if err := json.Unmarshal(lines[2], &fn); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&fn)
		rec, err := json.Marshal(&fn)
		if err != nil {
			t.Fatal(err)
		}
		// Reseal the payload so only the window validation can object.
		payload := append([][]byte{lines[1], append(rec, '\n')}, lines[3:len(lines)-1]...)
		crc := crc32.NewIEEE()
		for _, l := range payload {
			crc.Write(l)
		}
		tail, err := json.Marshal(snapshotTrailer{Functions: len(payload) - 1, CRC32: fmt.Sprintf("%08x", crc.Sum32())})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Join(append(append([][]byte{lines[0]}, payload...), append(tail, '\n')), nil)
		path := t.TempDir() + "/fleet.snap"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = New(Config{Predictor: testPredictor(t), SnapshotPath: path, Logf: t.Logf})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotLeavesNoTempFiles: a written snapshot is renamed into place
// with no temporary file left beside it, and a daemon restored from it
// writes the same bytes again.
func TestSnapshotLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/fleet.snap"
	orig := newSnapshotServer(t, path)
	if err := orig.Snapshot(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fleet.snap" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("snapshot directory holds %v, want only fleet.snap", names)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{
		Predictor:      testPredictor(t),
		ServiceOptions: []sizeless.Option{sizeless.WithMinWindow(50)},
		SnapshotPath:   path,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Error("the restored daemon's snapshot differs from the one it restored")
	}
}

// TestSnapshotNonFiniteModelKeepsPrevious: a serving model that cannot be
// saved, here through a NaN in its feature scaler, fails Snapshot, which
// leaves the previous snapshot file byte-identical and no temporary file.
func TestSnapshotNonFiniteModelKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/fleet.snap"
	srv := newSnapshotServer(t, path)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ds := *testDataset(t)
	ds.Rows = append([]dataset.Row(nil), ds.Rows...)
	row := &ds.Rows[0]
	sums := make(map[sizeless.MemorySize]monitoring.Summary, len(row.Summaries))
	for m, s := range row.Summaries {
		sums[m] = s
	}
	base := testPredictor(t).Base()
	sum := sums[base]
	for i := range sum.Mean {
		if i != int(monitoring.ExecutionTime) {
			sum.Mean[i] = math.NaN()
		}
	}
	sums[base] = sum
	row.Summaries = sums
	nanPred, err := sizeless.TrainPredictor(context.Background(), &ds, sizeless.WithHidden(4), sizeless.WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	srv.pred.Store(nanPred)

	if err := srv.Snapshot(); err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("Snapshot of a model with a NaN scaler value: %v, want an unsupported-value error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Error("a failed snapshot changed the previous snapshot file")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("snapshot directory holds %d entries (%v), want only the snapshot", len(entries), err)
	}
}

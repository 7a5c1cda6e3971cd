package dataset

import (
	"bytes"
	"strings"
	"testing"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// makeDataset builds a small synthetic dataset for testing.
func makeDataset(n int) *Dataset {
	ds := New(nil)
	for i := 0; i < n; i++ {
		row := Row{
			FunctionID: "fn-" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Hash:       "hash",
			Summaries:  make(map[platform.MemorySize]monitoring.Summary),
		}
		for j, m := range ds.Sizes {
			var s monitoring.Summary
			s.N = 100 + i
			s.ColdStarts = i % 3
			for k := 0; k < monitoring.NumMetrics; k++ {
				s.Mean[k] = float64(i*100+j*10+k) + 0.5
				s.Std[k] = float64(k) * 0.1
				s.CoV[k] = float64(k) * 0.01
			}
			row.Summaries[m] = s
		}
		ds.Rows = append(ds.Rows, row)
	}
	return ds
}

func TestValidate(t *testing.T) {
	ds := makeDataset(3)
	if err := ds.Validate(); err != nil {
		t.Fatalf("complete dataset rejected: %v", err)
	}
	delete(ds.Rows[1].Summaries, platform.Mem512)
	if err := ds.Validate(); err == nil {
		t.Error("missing size should fail validation")
	}
	empty := &Dataset{}
	if err := empty.Validate(); err == nil {
		t.Error("dataset with no sizes should fail validation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := makeDataset(5)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(ds.Rows) {
		t.Fatalf("round trip lost rows: %d vs %d", len(back.Rows), len(ds.Rows))
	}
	if len(back.Sizes) != len(ds.Sizes) {
		t.Fatalf("round trip lost sizes: %v vs %v", back.Sizes, ds.Sizes)
	}
	for i, row := range ds.Rows {
		got := back.Rows[i]
		if got.FunctionID != row.FunctionID || got.Hash != row.Hash {
			t.Errorf("row %d identity mismatch", i)
		}
		for _, m := range ds.Sizes {
			a, b := row.Summaries[m], got.Summaries[m]
			if a.N != b.N || a.ColdStarts != b.ColdStarts {
				t.Errorf("row %d size %v count mismatch", i, m)
			}
			for k := 0; k < monitoring.NumMetrics; k++ {
				if a.Mean[k] != b.Mean[k] || a.Std[k] != b.Std[k] || a.CoV[k] != b.CoV[k] {
					t.Errorf("row %d size %v metric %d value mismatch", i, m, k)
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("short header should error")
	}
}

func TestSplit(t *testing.T) {
	ds := makeDataset(10)
	train, test, err := ds.Split(0.3, xrand.New(1).Derive("split"))
	if err != nil {
		t.Fatal(err)
	}
	if len(test.Rows) != 3 || len(train.Rows) != 7 {
		t.Errorf("split sizes = %d/%d, want 7/3", len(train.Rows), len(test.Rows))
	}
	seen := make(map[string]bool)
	for _, r := range append(train.Rows, test.Rows...) {
		if seen[r.FunctionID] {
			t.Errorf("row %s appears twice", r.FunctionID)
		}
		seen[r.FunctionID] = true
	}
	if len(seen) != 10 {
		t.Errorf("split covers %d rows, want 10", len(seen))
	}
	if _, _, err := ds.Split(1.5, xrand.New(1)); err == nil {
		t.Error("out-of-range fraction should error")
	}
}

func TestKFold(t *testing.T) {
	ds := makeDataset(10)
	folds, err := ds.KFold(5, xrand.New(2).Derive("folds"))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("got %d folds, want 5", len(folds))
	}
	seen := make(map[int]bool)
	for _, fold := range folds {
		if len(fold) != 2 {
			t.Errorf("fold size = %d, want 2", len(fold))
		}
		for _, idx := range fold {
			if seen[idx] {
				t.Errorf("index %d in multiple folds", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("folds cover %d indices, want 10", len(seen))
	}
	if _, err := ds.KFold(1, xrand.New(1)); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := ds.KFold(11, xrand.New(1)); err == nil {
		t.Error("k > rows should error")
	}
}

func TestSubsetComplement(t *testing.T) {
	ds := makeDataset(6)
	idx := []int{0, 2, 4}
	sub := ds.Subset(idx)
	comp := ds.Complement(idx)
	if len(sub.Rows) != 3 || len(comp.Rows) != 3 {
		t.Fatalf("subset/complement sizes: %d/%d", len(sub.Rows), len(comp.Rows))
	}
	if sub.Rows[1].FunctionID != ds.Rows[2].FunctionID {
		t.Error("subset picked wrong rows")
	}
	if comp.Rows[0].FunctionID != ds.Rows[1].FunctionID {
		t.Error("complement picked wrong rows")
	}
}

func TestExecTimeMs(t *testing.T) {
	ds := makeDataset(1)
	v, ok := ds.Rows[0].ExecTimeMs(platform.Mem128)
	if !ok {
		t.Fatal("measured size reported missing")
	}
	if v != ds.Rows[0].Summaries[platform.Mem128].Mean[monitoring.ExecutionTime] {
		t.Error("ExecTimeMs returned wrong metric")
	}
	if _, ok := ds.Rows[0].ExecTimeMs(platform.MemorySize(192)); ok {
		t.Error("unmeasured size should report missing")
	}
	times := ds.Rows[0].ExecTimes()
	if len(times) != len(ds.Rows[0].Summaries) {
		t.Fatalf("ExecTimes has %d sizes, row measured %d", len(times), len(ds.Rows[0].Summaries))
	}
	for m := range ds.Rows[0].Summaries {
		if want, _ := ds.Rows[0].ExecTimeMs(m); times[m] != want {
			t.Errorf("ExecTimes[%v] = %v, want %v", m, times[m], want)
		}
	}
}

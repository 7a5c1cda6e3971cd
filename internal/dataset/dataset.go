// Package dataset defines the training-data schema of paper §3.3: for each
// function, the monitoring summary (mean/std/CoV of the 25 Table-1 metrics)
// at each of the six memory sizes, plus CSV persistence matching the
// replication package's "one big table" layout and the train/test split
// utilities the modeling stage needs.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// Row is one function's measurements across all memory sizes.
type Row struct {
	// FunctionID names the function.
	FunctionID string
	// Hash is the generator's behaviour hash (empty for case studies).
	Hash string
	// Summaries maps memory size → monitoring summary.
	Summaries map[platform.MemorySize]monitoring.Summary
}

// ExecTimeMs returns the mean execution time at memory size m, in ms.
// The boolean is false when the size was not measured.
func (r *Row) ExecTimeMs(m platform.MemorySize) (float64, bool) {
	s, ok := r.Summaries[m]
	if !ok {
		return 0, false
	}
	return s.Mean[monitoring.ExecutionTime], true
}

// ExecTimes returns the mean execution time at every measured size, in ms
// — the measured-times map the optimizer and the application planner take.
func (r *Row) ExecTimes() map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64, len(r.Summaries))
	for m, s := range r.Summaries {
		out[m] = s.Mean[monitoring.ExecutionTime]
	}
	return out
}

// Dataset is a collection of rows over a fixed memory-size grid.
type Dataset struct {
	Sizes []platform.MemorySize
	Rows  []Row
}

// New returns an empty dataset over the given sizes (defaults to the
// paper's six standard sizes when nil).
func New(sizes []platform.MemorySize) *Dataset {
	if sizes == nil {
		sizes = platform.StandardSizes()
	}
	return &Dataset{Sizes: append([]platform.MemorySize(nil), sizes...)}
}

// Validate checks that every row has a summary for every size.
func (d *Dataset) Validate() error {
	if len(d.Sizes) == 0 {
		return errors.New("dataset: no memory sizes")
	}
	for _, row := range d.Rows {
		for _, m := range d.Sizes {
			if _, ok := row.Summaries[m]; !ok {
				return fmt.Errorf("dataset: row %q missing size %v", row.FunctionID, m)
			}
		}
	}
	return nil
}

// Split partitions the dataset into train and test subsets with the given
// test fraction, shuffled by rng. Rows are shared, not copied.
//
//lint:ignore deadexport the held-out slice the adapt loop's swap check is planned to score on
func (d *Dataset) Split(testFraction float64, rng *xrand.Stream) (train, test *Dataset, err error) {
	if testFraction < 0 || testFraction > 1 {
		return nil, nil, errors.New("dataset: test fraction out of [0,1]")
	}
	perm := rng.Perm(len(d.Rows))
	nTest := int(float64(len(d.Rows)) * testFraction)
	train = New(d.Sizes)
	test = New(d.Sizes)
	for i, idx := range perm {
		if i < nTest {
			test.Rows = append(test.Rows, d.Rows[idx])
		} else {
			train.Rows = append(train.Rows, d.Rows[idx])
		}
	}
	return train, test, nil
}

// KFold returns k disjoint index folds covering all rows, shuffled by rng.
// Fold sizes differ by at most one.
func (d *Dataset) KFold(k int, rng *xrand.Stream) ([][]int, error) {
	if k < 2 || k > len(d.Rows) {
		return nil, fmt.Errorf("dataset: cannot make %d folds from %d rows", k, len(d.Rows))
	}
	perm := rng.Perm(len(d.Rows))
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// Subset returns a dataset view containing the rows at the given indices.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := New(d.Sizes)
	out.Rows = make([]Row, 0, len(indices))
	for _, i := range indices {
		out.Rows = append(out.Rows, d.Rows[i])
	}
	return out
}

// Complement returns the rows NOT in the given index set.
func (d *Dataset) Complement(indices []int) *Dataset {
	drop := make(map[int]bool, len(indices))
	for _, i := range indices {
		drop[i] = true
	}
	out := New(d.Sizes)
	for i := range d.Rows {
		if !drop[i] {
			out.Rows = append(out.Rows, d.Rows[i])
		}
	}
	return out
}

// csv layout: function,hash,memMB,n,coldStarts, then mean/std/cov × 25.
func csvHeader() []string {
	h := []string{"function", "hash", "memoryMB", "samples", "coldStarts"}
	for _, id := range monitoring.AllMetrics() {
		h = append(h, "mean_"+id.String())
	}
	for _, id := range monitoring.AllMetrics() {
		h = append(h, "std_"+id.String())
	}
	for _, id := range monitoring.AllMetrics() {
		h = append(h, "cov_"+id.String())
	}
	return h
}

// WriteCSV serializes the dataset.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for _, row := range d.Rows {
		sizes := make([]platform.MemorySize, 0, len(row.Summaries))
		for m := range row.Summaries {
			sizes = append(sizes, m)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, m := range sizes {
			s := row.Summaries[m]
			rec := make([]string, 0, 5+3*monitoring.NumMetrics)
			rec = append(rec, row.FunctionID, row.Hash,
				strconv.Itoa(int(m)), strconv.Itoa(s.N), strconv.Itoa(s.ColdStarts))
			for i := 0; i < monitoring.NumMetrics; i++ {
				rec = append(rec, formatFloat(s.Mean[i]))
			}
			for i := 0; i < monitoring.NumMetrics; i++ {
				rec = append(rec, formatFloat(s.Std[i]))
			}
			for i := 0; i < monitoring.NumMetrics; i++ {
				rec = append(rec, formatFloat(s.CoV[i]))
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("dataset: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxMemoryMB bounds the memory sizes ReadCSV accepts: 1 TB comfortably
// covers every FaaS platform while rejecting garbage (or hostile) CSV input
// before it becomes a grid entry.
const MaxMemoryMB = 1 << 20

// parseFinite parses a float and rejects NaN and ±Inf — a dataset cell
// holding a non-finite statistic can only be corruption, and letting it
// through would poison the scaler and every downstream prediction.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// ReadCSV parses a dataset previously written with WriteCSV. The size grid
// is inferred from the data. Malformed input — wrong or reordered header
// columns, rows with the wrong field count, NaN/Inf cells, non-positive or
// absurd memory sizes, negative counts, duplicate (function, size)
// measurements — is rejected with an error; ReadCSV never panics on bad
// input (fuzzed by FuzzReadDatasetCSV).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	want := csvHeader()
	if len(header) != len(want) {
		return nil, fmt.Errorf("dataset: header has %d columns, want %d", len(header), len(want))
	}
	for i := range header {
		if header[i] != want[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, header[i], want[i])
		}
	}

	rowsByID := make(map[string]*Row)
	var order []string
	sizeSet := make(map[platform.MemorySize]bool)
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read record: %w", err)
		}
		id, hash := rec[0], rec[1]
		if id == "" {
			return nil, errors.New("dataset: empty function ID")
		}
		memInt, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad memory %q: %w", rec[2], err)
		}
		if memInt <= 0 || memInt > MaxMemoryMB {
			return nil, fmt.Errorf("dataset: memory size %d outside (0, %d] MB", memInt, MaxMemoryMB)
		}
		m := platform.MemorySize(memInt)
		sizeSet[m] = true

		var s monitoring.Summary
		if s.N, err = strconv.Atoi(rec[3]); err != nil {
			return nil, fmt.Errorf("dataset: bad sample count: %w", err)
		}
		if s.ColdStarts, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("dataset: bad cold-start count: %w", err)
		}
		if s.N < 0 || s.ColdStarts < 0 {
			return nil, fmt.Errorf("dataset: negative count in row %q", id)
		}
		base := 5
		for i := 0; i < monitoring.NumMetrics; i++ {
			if s.Mean[i], err = parseFinite(rec[base+i]); err != nil {
				return nil, fmt.Errorf("dataset: bad mean: %w", err)
			}
		}
		base += monitoring.NumMetrics
		for i := 0; i < monitoring.NumMetrics; i++ {
			if s.Std[i], err = parseFinite(rec[base+i]); err != nil {
				return nil, fmt.Errorf("dataset: bad std: %w", err)
			}
		}
		base += monitoring.NumMetrics
		for i := 0; i < monitoring.NumMetrics; i++ {
			if s.CoV[i], err = parseFinite(rec[base+i]); err != nil {
				return nil, fmt.Errorf("dataset: bad cov: %w", err)
			}
		}

		row, ok := rowsByID[id]
		if !ok {
			row = &Row{FunctionID: id, Hash: hash, Summaries: make(map[platform.MemorySize]monitoring.Summary)}
			rowsByID[id] = row
			order = append(order, id)
		}
		if _, dup := row.Summaries[m]; dup {
			return nil, fmt.Errorf("dataset: duplicate measurement for %q at %v", id, m)
		}
		row.Summaries[m] = s
	}

	sizes := make([]platform.MemorySize, 0, len(sizeSet))
	for m := range sizeSet {
		sizes = append(sizes, m)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })

	out := New(sizes)
	for _, id := range order {
		out.Rows = append(out.Rows, *rowsByID[id])
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func formatFloat(f float64) string {
	// -1 precision guarantees exact round-tripping through ParseFloat.
	return strconv.FormatFloat(f, 'g', -1, 64)
}

package features

import (
	"errors"
	"sync"

	"sizeless/internal/monitoring"
)

// ExtractInto computes the feature vector of one summary into dst, which
// must be exactly len(feats) long. It is the allocation-free core shared by
// Matrix, the Extractor's pooled batch path, and single-summary prediction.
func ExtractInto(dst []float64, feats []Feature, s monitoring.Summary) {
	for j, f := range feats {
		dst[j] = f.Extract(s)
	}
}

// Extractor is the pooled feature-extraction path of the batch pipeline:
// it hands out feature matrices backed by reusable storage so the hot
// ingest→predict→recommend loop of a fleet-scale recommender stops
// allocating a fresh matrix per call. Borrowed matrices come from a
// sync.Pool, so an Extractor is safe for concurrent use; each caller gets
// its own backing buffer.
type Extractor struct {
	feats []Feature
	pool  sync.Pool // stores *matrixBuf
}

// matrixBuf is one reusable matrix: a flat float64 arena plus the row
// headers sliced into it.
type matrixBuf struct {
	flat []float64
	rows [][]float64
}

// NewExtractor builds a pooled extractor over a fixed feature set.
func NewExtractor(feats []Feature) (*Extractor, error) {
	if len(feats) == 0 {
		return nil, errors.New("features: empty feature set")
	}
	return &Extractor{feats: feats}, nil
}

// Borrow returns an n×len(feats) matrix backed by pooled storage and a release
// function that returns the storage to the pool. Contents are unspecified;
// neither the matrix nor its rows may be used after release.
func (e *Extractor) Borrow(n int) ([][]float64, func()) {
	buf, _ := e.pool.Get().(*matrixBuf)
	if buf == nil {
		buf = &matrixBuf{}
	}
	width := len(e.feats)
	if need := n * width; cap(buf.flat) < need {
		buf.flat = make([]float64, need)
	} else {
		buf.flat = buf.flat[:need]
	}
	if cap(buf.rows) < n {
		buf.rows = make([][]float64, n)
	} else {
		buf.rows = buf.rows[:n]
	}
	for i := range buf.rows {
		buf.rows[i] = buf.flat[i*width : (i+1)*width : (i+1)*width]
	}
	return buf.rows, func() { e.pool.Put(buf) }
}

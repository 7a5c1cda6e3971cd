// Package features implements the feature-engineering pipeline of paper
// §3.4: the initial mean-metric feature set F0, relative (per-second)
// features, std/CoV features, the sequential forward feature selection used
// to derive F1–F4 (Fig. 4), and the construction of feature/target matrices
// from a dataset.
//
// Targets are execution-time *ratios*: each target size's execution time is
// expressed relative to the base size's execution time, which equalizes the
// scale of the five regression targets (the paper's preprocessing step).
package features

import (
	"errors"
	"fmt"

	"sizeless/internal/dataset"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
)

// Feature is a named scalar extractor over one monitoring summary.
type Feature struct {
	// Name identifies the feature (e.g. "mean_userCPUTime",
	// "rel_netByteRx", "cov_heapUsed").
	Name string
	// Extract computes the feature value.
	Extract func(s monitoring.Summary) float64
}

// MeanFeatures returns the paper's F0: the mean of every Table-1 metric
// (execution time included).
func MeanFeatures() []Feature {
	out := make([]Feature, 0, monitoring.NumMetrics)
	for _, id := range monitoring.AllMetrics() {
		id := id
		out = append(out, Feature{
			Name:    "mean_" + id.String(),
			Extract: func(s monitoring.Summary) float64 { return s.Mean[id] },
		})
	}
	return out
}

// RelativeFeature builds the per-second version of a metric: the mean value
// normalized by the mean execution length (the paper's F2 construction,
// e.g. "context switches per second").
func RelativeFeature(id monitoring.MetricID) Feature {
	return Feature{
		Name: "rel_" + id.String(),
		Extract: func(s monitoring.Summary) float64 {
			execMs := s.Mean[monitoring.ExecutionTime]
			if execMs <= 0 {
				return 0
			}
			return s.Mean[id] / (execMs / 1000)
		},
	}
}

// RelativeFeatures returns per-second versions of the given metrics,
// skipping execution time itself (its relative form is identically 1000).
func RelativeFeatures(ids []monitoring.MetricID) []Feature {
	out := make([]Feature, 0, len(ids))
	for _, id := range ids {
		if id == monitoring.ExecutionTime {
			continue
		}
		out = append(out, RelativeFeature(id))
	}
	return out
}

// StdFeature returns the standard deviation of a metric as a feature.
func StdFeature(id monitoring.MetricID) Feature {
	return Feature{
		Name:    "std_" + id.String(),
		Extract: func(s monitoring.Summary) float64 { return s.Std[id] },
	}
}

// CoVFeature returns the coefficient of variation of a metric as a feature.
func CoVFeature(id monitoring.MetricID) Feature {
	return Feature{
		Name:    "cov_" + id.String(),
		Extract: func(s monitoring.Summary) float64 { return s.CoV[id] },
	}
}

// PaperFinalFeatures returns our analogue of the paper's final feature set
// F4 (eleven features on their data; twelve here): every feature is
// derived from the base metrics plus the monitored execution time, which
// anchors the input scale. The paper's §3.4 selection found six base
// metrics: heap used, user CPU time, system CPU time, voluntary context
// switches, bytes written to the file system, and bytes received over the
// network. On this simulator's training population the selection
// additionally keeps the file-system READ counter and the bytes
// TRANSMITTED counter: file reads and uploads are first-class
// memory-scalable resources here (image/file/S3-upload segments), and
// without their rates a read- or upload-bound function is
// indistinguishable from a wait-bound one — same low CPU/write/receive
// rates, opposite scaling with memory. Matching the paper's
// Fig. 5, the load-bearing features are *rates* (per-second
// normalizations), which decorrelates them from raw execution length; the
// remaining slots carry the std/CoV shape information added in the third
// selection round.
func PaperFinalFeatures() []Feature {
	mean := func(id monitoring.MetricID) Feature {
		return Feature{
			Name:    "mean_" + id.String(),
			Extract: func(s monitoring.Summary) float64 { return s.Mean[id] },
		}
	}
	return []Feature{
		mean(monitoring.ExecutionTime),
		mean(monitoring.HeapUsed),
		RelativeFeature(monitoring.UserCPUTime),
		RelativeFeature(monitoring.SystemCPUTime),
		RelativeFeature(monitoring.VolCtxSwitches),
		RelativeFeature(monitoring.FSReads),
		RelativeFeature(monitoring.FSWrites),
		RelativeFeature(monitoring.BytesReceived),
		RelativeFeature(monitoring.BytesTransmitted),
		StdFeature(monitoring.UserCPUTime),
		CoVFeature(monitoring.UserCPUTime),
		CoVFeature(monitoring.HeapUsed),
	}
}

// ByName reconstructs a feature from its canonical name ("mean_x",
// "rel_x", "std_x", "cov_x" where x is a Table-1 metric name). This is how
// persisted models resolve their feature sets on load.
func ByName(name string) (Feature, error) {
	for _, prefix := range []string{"mean_", "rel_", "std_", "cov_"} {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		id, err := monitoring.MetricByName(name[len(prefix):])
		if err != nil {
			return Feature{}, fmt.Errorf("features: %w", err)
		}
		switch prefix {
		case "mean_":
			return Feature{
				Name:    name,
				Extract: func(s monitoring.Summary) float64 { return s.Mean[id] },
			}, nil
		case "rel_":
			return RelativeFeature(id), nil
		case "std_":
			return StdFeature(id), nil
		default:
			return CoVFeature(id), nil
		}
	}
	return Feature{}, fmt.Errorf("features: unknown feature name %q", name)
}

// Names lists the feature names in order.
func Names(feats []Feature) []string {
	out := make([]string, len(feats))
	for i, f := range feats {
		out[i] = f.Name
	}
	return out
}

// ErrMissingBase is returned when a row lacks the base-size summary.
var ErrMissingBase = errors.New("features: row missing base memory size")

// Matrix extracts the feature matrix of ds at the base memory size. The
// rows share one flat backing array (a single allocation, cache-friendly);
// callers own the result. Batch hot paths that extract repeatedly should
// use an Extractor instead, which recycles this storage through a
// sync.Pool.
func Matrix(ds *dataset.Dataset, base platform.MemorySize, feats []Feature) ([][]float64, error) {
	if len(feats) == 0 {
		return nil, errors.New("features: empty feature set")
	}
	flat := make([]float64, len(ds.Rows)*len(feats))
	x := make([][]float64, len(ds.Rows))
	for i, row := range ds.Rows {
		s, ok := row.Summaries[base]
		if !ok {
			return nil, fmt.Errorf("%w: row %q, base %v", ErrMissingBase, row.FunctionID, base)
		}
		vec := flat[i*len(feats) : (i+1)*len(feats) : (i+1)*len(feats)]
		ExtractInto(vec, feats, s)
		x[i] = vec
	}
	return x, nil
}

// TargetSizes returns the grid minus the base size — the five prediction
// targets of the multi-target regression.
func TargetSizes(sizes []platform.MemorySize, base platform.MemorySize) []platform.MemorySize {
	out := make([]platform.MemorySize, 0, len(sizes)-1)
	for _, m := range sizes {
		if m != base {
			out = append(out, m)
		}
	}
	return out
}

// Targets extracts the ratio-target matrix: for each row, the execution
// time at each target size divided by the execution time at the base size.
func Targets(ds *dataset.Dataset, base platform.MemorySize, targets []platform.MemorySize) ([][]float64, error) {
	y := make([][]float64, len(ds.Rows))
	for i, row := range ds.Rows {
		baseMs, ok := row.ExecTimeMs(base)
		if !ok {
			return nil, fmt.Errorf("%w: row %q, base %v", ErrMissingBase, row.FunctionID, base)
		}
		if baseMs <= 0 {
			return nil, fmt.Errorf("features: row %q has non-positive base execution time", row.FunctionID)
		}
		vec := make([]float64, len(targets))
		for j, m := range targets {
			ms, ok := row.ExecTimeMs(m)
			if !ok {
				return nil, fmt.Errorf("features: row %q missing target %v", row.FunctionID, m)
			}
			vec[j] = ms / baseMs
		}
		y[i] = vec
	}
	return y, nil
}

package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	"sizeless/internal/stats"
	"sizeless/internal/workload"
)

// StabilityOptions configures the metric-stability test of paper §3.3: for
// each metric, do the samples from the first k minutes come from the same
// distribution as the samples from the full experiment?
type StabilityOptions struct {
	// Prefixes are the window lengths to test (paper: 1..15 minutes).
	Prefixes []time.Duration
	// Full is the total experiment duration (paper: 15 minutes).
	Full time.Duration
	// Alpha is the Mann-Whitney significance level (0.05).
	Alpha float64
}

// MetricStability reports, per metric and prefix, whether the prefix window
// is *stable* (Mann-Whitney U fails to reject same-distribution vs the full
// experiment) and the Cliff's delta effect size of the difference.
type MetricStability struct {
	Metric MetricStabilityKey
	// Stable[i] corresponds to Prefixes[i].
	Stable []bool
	// Delta[i] is Cliff's delta between prefix i and the full window.
	Delta []float64
}

// MetricStabilityKey identifies the metric under test.
type MetricStabilityKey = monitoring.MetricID

// ErrNoInvocations is returned when the trace is empty.
var ErrNoInvocations = errors.New("harness: no invocations in trace")

// AnalyzeStability runs the §3.3 stability test over one function's trace.
func AnalyzeStability(invs []monitoring.Invocation, opts StabilityOptions) ([]MetricStability, error) {
	if len(invs) == 0 {
		return nil, ErrNoInvocations
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 0.05
	}
	out := make([]MetricStability, 0, monitoring.NumMetrics)
	for _, id := range monitoring.AllMetrics() {
		full := monitoring.MetricSamples(invs, id)
		ms := MetricStability{
			Metric: id,
			Stable: make([]bool, len(opts.Prefixes)),
			Delta:  make([]float64, len(opts.Prefixes)),
		}
		for i, p := range opts.Prefixes {
			prefix := monitoring.MetricSamples(monitoring.Window(invs, 0, p), id)
			if len(prefix) == 0 {
				ms.Stable[i] = false
				ms.Delta[i] = 1
				continue
			}
			same, err := stats.SameDistribution(prefix, full, opts.Alpha)
			if err != nil {
				return nil, err
			}
			ms.Stable[i] = same
			d, err := stats.CliffsDelta(prefix, full)
			if err != nil {
				return nil, err
			}
			ms.Delta[i] = d
		}
		out = append(out, ms)
	}
	return out, nil
}

// StabilityBatch is the multi-start stability search: it traces every spec
// at memory size m and runs AnalyzeStability on each trace, fanning the
// (trace + analyze) work out over the shared worker pool bounded by
// opts.Workers. Results align positionally with specs and are bit-identical
// for any worker count — every trace derives its randomness from the root
// seed plus the spec's name. Cancelling ctx abandons unstarted specs and
// returns the context's error.
func StabilityBatch(ctx context.Context, opts Options, sOpts StabilityOptions, specs []*workload.Spec, m platform.MemorySize) ([][]MetricStability, error) {
	opts = opts.withDefaults()
	out := make([][]MetricStability, len(specs))
	err := pool.Run(ctx, len(specs), opts.Workers, func(i int) error {
		invs, err := Trace(opts, specs[i], m)
		if err != nil {
			return fmt.Errorf("harness: stability trace %s: %w", specs[i].Name, err)
		}
		ms, err := AnalyzeStability(invs, sOpts)
		if err != nil {
			return fmt.Errorf("harness: stability %s: %w", specs[i].Name, err)
		}
		out[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UnstableCounts aggregates stability analyses across functions: for each
// metric and prefix index, how many functions is the metric unstable for —
// the y-axis of paper Fig. 3.
func UnstableCounts(perFunction [][]MetricStability, nPrefixes int) map[monitoring.MetricID][]int {
	counts := make(map[monitoring.MetricID][]int, monitoring.NumMetrics)
	for _, fn := range perFunction {
		for _, ms := range fn {
			row, ok := counts[ms.Metric]
			if !ok {
				row = make([]int, nPrefixes)
				counts[ms.Metric] = row
			}
			for i := 0; i < nPrefixes && i < len(ms.Stable); i++ {
				if !ms.Stable[i] {
					row[i]++
				}
			}
		}
	}
	return counts
}

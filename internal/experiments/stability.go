package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// StabilityResult is the Fig. 3 reproduction: for each metric, the number
// of functions it is still unstable for after each prefix duration.
type StabilityResult struct {
	Prefixes []time.Duration
	// Unstable maps metric → per-prefix unstable-function count.
	Unstable map[monitoring.MetricID][]int
	// Functions is the analyzed population size.
	Functions int
	// StableAfter reports, per metric, the first prefix index at which the
	// metric is stable for every function (-1 = never within the window).
	StableAfter map[monitoring.MetricID]int
}

// StabilityAnalysis reproduces §3.3: generate functions, trace each for the
// full window at the dataset-generation request rate, and test every
// prefix against the full experiment with Mann-Whitney U.
func StabilityAnalysis(ctx context.Context, lab *Lab) (*StabilityResult, error) {
	scale := lab.Scale
	specs, err := fngen.New(xrand.New(scale.Seed+2000), fngen.Options{}).Generate(scale.StabilityFunctions)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 generation: %w", err)
	}

	// Prefixes: 15 equal steps over the stability window (the paper's
	// 1..15 minutes over a 15-minute experiment).
	const steps = 15
	prefixes := make([]time.Duration, steps)
	for i := range prefixes {
		prefixes[i] = scale.StabilityDuration * time.Duration(i+1) / steps
	}
	sOpts := harness.StabilityOptions{
		Prefixes: prefixes,
		Full:     scale.StabilityDuration,
		Alpha:    0.05,
	}

	// Multi-start: every function's trace + analysis runs through the
	// shared worker pool (per-spec derived streams keep the result
	// bit-identical for any worker count).
	tOpts := harness.Options{
		Rate:     scale.Rate,
		Duration: scale.StabilityDuration,
		Seed:     scale.Seed + 3,
		Workers:  scale.Workers,
	}
	perFunction, err := harness.StabilityBatch(ctx, tOpts, sOpts, specs, platform.Mem256)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}

	res := &StabilityResult{
		Prefixes:    prefixes,
		Unstable:    harness.UnstableCounts(perFunction, steps),
		Functions:   len(specs),
		StableAfter: make(map[monitoring.MetricID]int, monitoring.NumMetrics),
	}
	for id, counts := range res.Unstable {
		res.StableAfter[id] = -1
		for i := len(counts) - 1; i >= 0; i-- {
			if counts[i] != 0 {
				if i+1 < len(counts) {
					res.StableAfter[id] = i + 1
				}
				break
			}
			if i == 0 {
				res.StableAfter[id] = 0
			}
		}
	}
	return res, nil
}

// Render prints the Fig. 3 series: unstable counts per metric over the
// prefix durations, most-unstable metrics first.
func (r *StabilityResult) Render() string {
	type entry struct {
		id    monitoring.MetricID
		total int
	}
	entries := make([]entry, 0, len(r.Unstable))
	for id, counts := range r.Unstable {
		sum := 0
		for _, c := range counts {
			sum += c
		}
		entries = append(entries, entry{id, sum})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].total != entries[j].total {
			return entries[i].total > entries[j].total
		}
		return entries[i].id < entries[j].id
	})

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — unstable-function count per metric over experiment duration (%d functions)\n\n", r.Functions)
	header := []string{"metric"}
	for _, p := range r.Prefixes {
		header = append(header, p.Truncate(time.Second).String())
	}
	t := newTable(header...)
	for _, e := range entries {
		row := []string{e.id.String()}
		for _, c := range r.Unstable[e.id] {
			row = append(row, fmt.Sprintf("%d", c))
		}
		t.addRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

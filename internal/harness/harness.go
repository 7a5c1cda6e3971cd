// Package harness is the Go measurement harness of paper §3.3: it deploys
// functions at each memory size, drives them with a Poisson load schedule,
// aggregates the monitored metrics, and parallelizes the (function ×
// memory-size) experiment grid across workers — the role the paper's
// Vegeta-based harness plays against real AWS.
//
// BuildDataset is the one campaign entry point: the training corpus, the
// case studies, the motivating example, the application planner and
// single-function monitoring all measure their (spec × size) grid through
// it. Trace is the separate raw-invocation path behind the stability test.
//
// Determinism: every experiment derives its own random stream from the root
// seed plus (function, memory) identity, so results are bit-identical
// regardless of worker count or scheduling order.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sizeless/internal/dataset"
	"sizeless/internal/lambda"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	rt "sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// Options configures a measurement campaign.
type Options struct {
	// Env is the simulated platform/services environment. Nil = defaults.
	// The environment must not be mutated while a campaign runs.
	Env *rt.Env
	// Rate is the request rate in req/s (paper: 30).
	Rate float64
	// Duration is the per-experiment measurement window (paper: 10 min).
	Duration time.Duration
	// Sizes is the memory grid (paper: the six standard sizes).
	Sizes []platform.MemorySize
	// Seed is the root seed for all derived randomness.
	Seed int64
	// Workers bounds experiment parallelism (default: GOMAXPROCS).
	Workers int
	// Repetitions: how many independent measurement repetitions to run and
	// average (the case studies use 10, §4). Default 1.
	Repetitions int
	// Progress, when non-nil, is invoked after every completed experiment
	// with the number of finished and total (function × size) cells. Calls
	// are serialized; the callback must not block for long.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.Env == nil {
		o.Env = rt.NewEnv()
	}
	if o.Rate <= 0 {
		o.Rate = 30
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Minute
	}
	if o.Sizes == nil {
		o.Sizes = platform.StandardSizes()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Repetitions <= 0 {
		o.Repetitions = 1
	}
	return o
}

// measure runs one experiment: spec at memory size m under the campaign's
// load, returning the aggregated summary. rep distinguishes measurement
// repetitions.
func measure(opts Options, spec *workload.Spec, m platform.MemorySize, rep int) (monitoring.Summary, lambda.Result, error) {
	acc := monitoring.NewAccumulator()
	res, err := replay(opts, spec, m, fmt.Sprintf("%s@%v#rep%d", spec.Name, m, rep), acc)
	if err != nil {
		return monitoring.Summary{}, lambda.Result{}, err
	}
	sum, err := acc.Summary()
	if err != nil {
		return monitoring.Summary{}, lambda.Result{}, err
	}
	return sum, res, nil
}

// replay is the one experiment sequence behind measure and Trace: a
// Poisson schedule at the campaign's load, replayed through spec deployed
// at m, every invocation landing in store. The experiment name exp keys the
// schedule ("sched/"+exp) and deployment ("dep/"+exp) random streams.
func replay(opts Options, spec *workload.Spec, m platform.MemorySize, exp string, store monitoring.Store) (lambda.Result, error) {
	opts = opts.withDefaults()
	root := xrand.New(opts.Seed)
	sched, err := loadgen.Poisson(opts.Rate, opts.Duration, root.Derive("sched/"+exp))
	if err != nil {
		return lambda.Result{}, err
	}
	dep, err := lambda.NewDeployment(opts.Env, spec, m, store, root.Derive("dep/"+exp))
	if err != nil {
		return lambda.Result{}, err
	}
	return dep.Run(sched)
}

// measureRepeated runs opts.Repetitions independent repetitions of the
// experiment and averages the summaries (randomized multiple interleaved
// trials in the paper reduce cloud variability the same way, §4).
func measureRepeated(opts Options, spec *workload.Spec, m platform.MemorySize) (monitoring.Summary, error) {
	opts = opts.withDefaults()
	sums := make([]monitoring.Summary, 0, opts.Repetitions)
	for rep := 0; rep < opts.Repetitions; rep++ {
		s, _, err := measure(opts, spec, m, rep)
		if err != nil {
			return monitoring.Summary{}, err
		}
		sums = append(sums, s)
	}
	return averageSummaries(sums), nil
}

func averageSummaries(sums []monitoring.Summary) monitoring.Summary {
	var out monitoring.Summary
	if len(sums) == 0 {
		return out
	}
	for _, s := range sums {
		out.N += s.N
		out.ColdStarts += s.ColdStarts
		out.Mean.Add(&s.Mean)
		out.Std.Add(&s.Std)
		out.CoV.Add(&s.CoV)
	}
	f := 1 / float64(len(sums))
	out.Mean.Scale(f)
	out.Std.Scale(f)
	out.CoV.Scale(f)
	return out
}

// BuildDataset measures every spec at every size of opts.Sizes (nil means
// the six standard sizes), averaging opts.Repetitions repetitions per
// cell, in parallel. It returns one row per spec, aligned with specs, with
// the spec's name as FunctionID and its behaviour hash as Hash. Cancelling
// ctx stops scheduling new experiments and returns the context's error;
// results are bit-identical for any worker count while the context stays
// live.
func BuildDataset(ctx context.Context, opts Options, specs []*workload.Spec) (*dataset.Dataset, error) {
	opts = opts.withDefaults()
	if len(specs) == 0 {
		return nil, errors.New("harness: no specs to measure")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: campaign cancelled: %w", err)
	}

	ds := dataset.New(opts.Sizes)
	ds.Rows = make([]dataset.Row, len(specs))
	for i, spec := range specs {
		ds.Rows[i] = dataset.Row{
			FunctionID: spec.Name,
			Hash:       spec.Hash(),
			Summaries:  make(map[platform.MemorySize]monitoring.Summary, len(opts.Sizes)),
		}
	}

	// The campaign grid fans out over the shared bounded pool: job index j
	// maps to (spec, size) row-major, each job writes only its own cell,
	// and pool.Run stops claiming new cells when ctx is cancelled.
	total := len(specs) * len(opts.Sizes)
	var mu sync.Mutex
	var done int
	err := pool.Run(ctx, total, opts.Workers, func(j int) error {
		spec, mem := specs[j/len(opts.Sizes)], opts.Sizes[j%len(opts.Sizes)]
		sum, err := measureRepeated(opts, spec, mem)
		if err != nil {
			return fmt.Errorf("harness: %s at %v: %w", spec.Name, mem, err)
		}
		mu.Lock()
		ds.Rows[j/len(opts.Sizes)].Summaries[mem] = sum
		done++
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, fmt.Errorf("harness: campaign cancelled: %w", ctxErr)
		}
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Trace runs one experiment retaining every invocation — the input to the
// metric-stability analysis (paper Fig. 3), which needs raw per-request
// samples rather than aggregates.
func Trace(opts Options, spec *workload.Spec, m platform.MemorySize) ([]monitoring.Invocation, error) {
	store := monitoring.NewMemoryStore()
	if _, err := replay(opts, spec, m, fmt.Sprintf("%s@%v#trace", spec.Name, m), store); err != nil {
		return nil, err
	}
	return store.Invocations(spec.Name), nil
}

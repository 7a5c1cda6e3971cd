// Package lambda simulates a function deployed on a FaaS platform: it
// drives runtime instances over a loadgen schedule, enforces the account
// concurrency limit, and feeds every invocation through the monitoring
// wrapper — the simulated counterpart of deploying a monitored function
// and pointing a load driver at it (paper §3.3). Which instance serves an
// arrival, and when one starts cold or is reclaimed after the keep-alive,
// is decided by internal/warmpool, the lifecycle fleetsynth shares.
package lambda

import (
	"errors"
	"fmt"
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/warmpool"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// instance is the per-instance state the warm pool carries.
type instance struct {
	inst    *runtime.Instance
	monitor *monitoring.Monitor
}

// Deployment is one function deployed at one memory size.
type Deployment struct {
	env   *runtime.Env
	spec  *workload.Spec
	mem   platform.MemorySize
	store monitoring.Store
	rng   *xrand.Stream

	pool      *warmpool.Pool[instance]
	nextID    int
	wrapperMs float64
}

// Result summarizes one schedule run.
type Result struct {
	// Invocations served (cold + warm).
	Invocations int
	// ColdStarts is how many invocations created a new instance.
	ColdStarts int
	// Throttled counts arrivals rejected by the concurrency limit.
	Throttled int
	// MaxConcurrency is the peak simultaneous instance count.
	MaxConcurrency int
}

// ErrNoStore is returned when the deployment has no monitoring sink.
var ErrNoStore = errors.New("lambda: deployment needs a monitoring store")

// NewDeployment deploys spec at memory size mem. Every invocation's metric
// vector is appended to store. The rng stream must be unique per
// deployment for deterministic parallel experiments. The keep-alive is
// read from env once, here; env must not change while the deployment runs.
func NewDeployment(env *runtime.Env, spec *workload.Spec, mem platform.MemorySize, store monitoring.Store, rng *xrand.Stream) (*Deployment, error) {
	if store == nil {
		return nil, ErrNoStore
	}
	if env == nil || rng == nil {
		return nil, errors.New("lambda: deployment needs an environment and a random stream")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("lambda: %w", err)
	}
	if !env.Platform.ValidSize(mem) {
		return nil, fmt.Errorf("lambda: memory size %v not deployable on this platform", mem)
	}
	return &Deployment{
		env:   env,
		spec:  spec,
		mem:   mem,
		store: store,
		rng:   rng,
		pool:  warmpool.New[instance](env.Platform.KeepAlive),
		// The wrapper-style monitor adds a small overhead to instance busy
		// time (polling metrics + DynamoDB write). It does NOT affect the
		// measured inner execution time (paper §3.2).
		wrapperMs: 2.0,
	}, nil
}

// Run processes the schedule in arrival order and returns aggregate
// statistics. Per-invocation data lands in the deployment's store.
func (d *Deployment) Run(schedule loadgen.Schedule) (Result, error) {
	var res Result
	limit := d.env.Platform.ConcurrencyLimit
	for _, t := range schedule.Sorted() {
		in := d.pool.Warm(t)
		cold := false
		start := t
		if in == nil {
			if limit > 0 && d.pool.Len() >= limit {
				res.Throttled++
				continue
			}
			var err error
			in, err = d.spawn()
			if err != nil {
				return res, err
			}
			cold = true
			// Cold start delays the handler start; init CPU lands outside
			// the monitor's diff window because RunInit advances counters
			// before Record snapshots them.
			start = t + in.Value.inst.RunInit()
		}

		inv, err := in.Value.monitor.Record(start, cold, in.Value.inst.Invoke)
		if err != nil {
			return res, fmt.Errorf("lambda: invocation at %v: %w", t, err)
		}
		in.Serve(start + inv.Duration + time.Duration(d.wrapperMs*float64(time.Millisecond)))
		res.Invocations++
		if cold {
			res.ColdStarts++
		}
		res.MaxConcurrency = max(res.MaxConcurrency, d.pool.Len())
	}
	return res, nil
}

// spawn starts a fresh (cold) instance in the pool.
func (d *Deployment) spawn() (*warmpool.Instance[instance], error) {
	inst, err := runtime.NewInstance(d.env, d.spec, d.mem, d.rng.DeriveIndexed("instance", d.nextID))
	if err != nil {
		return nil, err
	}
	d.nextID++
	return d.pool.Start(instance{
		inst: inst,
		monitor: &monitoring.Monitor{
			FunctionID: d.spec.Name,
			Probe:      inst,
			Store:      d.store,
		},
	}), nil
}

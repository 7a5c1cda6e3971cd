// Package runtime executes workload specs on the simulated platform in
// virtual time. It is the stand-in for "Node.js on an AWS Lambda worker":
// given a function spec and a memory size, it converts declared work into
// wall-clock time using the platform's memory-dependent resource model and
// maintains the cumulative counters the monitoring wrapper diffs
// (paper §3.2).
//
// The execution model, phase by phase:
//
//   - CPU phases run at the memory-scaled CPU share, with a throttling
//     penalty below one vCPU and a GC slowdown when the heap nears the
//     memory limit. Single-threaded phases block the event loop (producing
//     the perf_hooks lag the paper monitors); threadpool phases do not.
//   - File I/O runs at the memory-scaled /tmp bandwidth.
//   - Service calls pay a remote latency that does NOT scale with memory,
//     plus a transfer time over the memory-scaled network bandwidth, plus
//     client-side SDK CPU.
//   - Sleeps are memory-independent.
//
// Every phase is jittered with lognormal noise; instances carry a small
// persistent speed factor modelling worker heterogeneity.
package runtime

import (
	"fmt"
	"math"
	"time"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// Env is the shared execution environment: the platform, the managed
// services, and a global drift factor modelling provider-side performance
// change between measurement campaigns (the paper's case studies were
// measured 2–9 months after the training dataset).
type Env struct {
	Platform platform.Config
	Services *services.Registry
	// Drift multiplies all phase durations. 1.0 = no drift.
	Drift float64
}

// NewEnv returns an Env with the default (AWS-Lambda-like) platform and
// services.
func NewEnv() *Env {
	return NewEnvFor(platform.DefaultConfig())
}

// NewEnvFor returns an Env running the given platform configuration —
// the hook through which a platform.Provider parameterizes the simulation.
func NewEnvFor(cfg platform.Config) *Env {
	return &Env{
		Platform: cfg,
		Services: services.NewRegistry(nil),
		Drift:    1.0,
	}
}

func (e *Env) drift() float64 {
	if e.Drift <= 0 {
		return 1
	}
	return e.Drift
}

// Instance is one warm function instance: it owns the cumulative counters
// (process.cpuUsage, /proc/net/dev, ...) that only reset when the instance
// is recycled, and a persistent hardware speed factor.
type Instance struct {
	env  *Env
	spec *workload.Spec
	mem  platform.MemorySize
	rng  *xrand.Stream

	speedFactor float64
	snap        monitoring.Snapshot
	initialized bool
}

var _ monitoring.Probe = (*Instance)(nil)

// NewInstance creates a fresh (cold) instance of spec at memory size m.
// The rng stream should be unique to this instance.
func NewInstance(env *Env, spec *workload.Spec, m platform.MemorySize, rng *xrand.Stream) (*Instance, error) {
	if env == nil || env.Services == nil {
		return nil, fmt.Errorf("runtime: nil environment")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if !env.Platform.ValidSize(m) {
		return nil, fmt.Errorf("runtime: memory size %v not deployable on this platform", m)
	}
	inst := &Instance{
		env:         env,
		spec:        spec,
		mem:         m,
		rng:         rng,
		speedFactor: rng.TruncNormal(1.0, 0.035, 0.9, 1.1),
	}
	// Baseline gauges for a booted runtime before any invocation.
	res := &env.Platform.Resources
	inst.snap.HeapLimitMB = res.AvailableHeapMB(m)
	inst.snap.HeapUsedMB = spec.BaseHeapMB
	inst.snap.HeapTotalMB = spec.BaseHeapMB*1.2 + 4
	inst.snap.AvailableHeapMB = math.Max(inst.snap.HeapLimitMB-inst.snap.HeapTotalMB, 0)
	inst.snap.PhysicalHeapMB = inst.snap.HeapTotalMB + 2
	inst.snap.RSSMB = inst.snap.HeapTotalMB + 30
	inst.snap.MaxRSSMB = inst.snap.RSSMB
	inst.snap.BytecodeMetaMB = spec.CodeMB * 0.4
	return inst, nil
}

// Snapshot implements monitoring.Probe.
func (i *Instance) Snapshot() monitoring.Snapshot { return i.snap }

// RunInit performs cold-start initialization (module loading), advancing
// the cumulative counters and returning the initialization duration. It
// runs *before* the monitored handler, exactly as Lambda init runs before
// the handler — so its CPU time lands outside the monitor's diff window.
func (i *Instance) RunInit() time.Duration {
	if i.initialized {
		return 0
	}
	i.initialized = true
	res := &i.env.Platform.Resources
	speed := res.SingleThreadSpeed(i.mem) * i.speedFactor
	// Module loading: ~8 ms of CPU per MB of deployment package.
	work := i.spec.CodeMB * 8.0
	wall := i.rng.Jitter(work/speed, 0.15) * i.env.drift()
	i.snap.UserCPU += msToDur(wall * speed)
	i.snap.VolCtx += 2
	platformDelay := i.env.Platform.ColdStartDelay(i.mem)
	return platformDelay + msToDur(wall)
}

// execState carries per-invocation accumulation.
type execState struct {
	wallMs       float64
	heapMB       float64
	mallocPeakMB float64
	bytesRecv    int64
	bytesSent    int64
	lagSamples   []float64
}

// Invoke executes one invocation, advancing the instance counters, and
// returns the handler-inner execution time plus the event-loop lag window.
// It matches the monitoring.Handler signature via a closure:
//
//	monitor.Record(start, cold, func() (time.Duration, monitoring.LagSample, error) {
//	    return inst.Invoke()
//	})
func (i *Instance) Invoke() (time.Duration, monitoring.LagSample, error) {
	noise := i.spec.NoiseCoV
	drift := i.env.drift()

	st := execState{heapMB: i.spec.BaseHeapMB}

	// Event payload arrives over the instance's network interface.
	i.receive(&st, i.spec.PayloadKB)

	for idx, op := range i.spec.Ops {
		if err := i.execOp(&st, op, noise, drift); err != nil {
			return 0, monitoring.LagSample{}, fmt.Errorf("runtime: op %d of %q: %w", idx, i.spec.Name, err)
		}
	}

	// Response leaves over the network interface.
	i.transmit(&st, i.spec.ResponseKB)

	i.finishInvocation(&st)
	lag := lagStats(st.lagSamples, i.rng)
	dur := msToDur(st.wallMs)
	return dur, lag, nil
}

func (i *Instance) execOp(st *execState, op workload.Op, noise, drift float64) error {
	res := &i.env.Platform.Resources
	switch o := op.(type) {
	case workload.CPUOp:
		i.execCPU(st, o, noise, drift)
	case workload.AllocOp:
		st.heapMB += o.MB
		st.mallocPeakMB += o.MB
		// Allocation costs ~0.08 ms CPU per MB (zeroing + bookkeeping).
		i.execCPU(st, workload.CPUOp{Label: "alloc", WorkMs: o.MB * 0.08, Parallelism: 1}, noise, drift)
	case workload.FileReadOp:
		bw := res.IOBandwidthMBps(i.mem) * i.speedFactor
		wall := i.rng.Jitter(o.MB/bw*1000, noise) * drift
		st.wallMs += wall
		i.snap.SystemCPU += msToDur(o.MB * 0.10)
		i.snap.FSReads += int64(math.Ceil(o.MB * 16)) // 64 KB chunks
		i.snap.VolCtx += 1 + int64(o.MB/4)
		st.lagSamples = append(st.lagSamples, i.rng.Uniform(0.05, 0.6))
	case workload.FileWriteOp:
		bw := res.IOBandwidthMBps(i.mem) * 0.8 * i.speedFactor
		wall := i.rng.Jitter(o.MB/bw*1000, noise) * drift
		st.wallMs += wall
		i.snap.SystemCPU += msToDur(o.MB * 0.12)
		i.snap.FSWrites += int64(math.Ceil(o.MB * 16))
		i.snap.VolCtx += 1 + int64(o.MB/4)
		st.lagSamples = append(st.lagSamples, i.rng.Uniform(0.05, 0.6))
	case workload.ServiceOp:
		if err := i.execService(st, o, noise, drift); err != nil {
			return err
		}
	case workload.SleepOp:
		st.wallMs += i.rng.Jitter(o.Ms, noise/2) * drift
		i.snap.VolCtx++
		st.lagSamples = append(st.lagSamples, i.rng.Uniform(0.05, 0.4))
	default:
		return fmt.Errorf("unsupported op type %T", op)
	}
	return nil
}

// execCPU models a compute phase including GC pressure and throttling.
func (i *Instance) execCPU(st *execState, o workload.CPUOp, noise, drift float64) {
	if o.WorkMs <= 0 {
		return
	}
	res := &i.env.Platform.Resources
	if o.TransientAllocMB > st.mallocPeakMB {
		st.mallocPeakMB = o.TransientAllocMB
	}
	gc := res.GCSlowdown(i.mem, st.heapMB+o.TransientAllocMB*0.5)
	par := o.Parallelism
	if par < 1 {
		par = 1
	}
	speed := res.ParallelSpeed(i.mem, par) * i.speedFactor
	effWork := o.WorkMs * gc
	wall := i.rng.Jitter(effWork/speed, noise) * drift
	st.wallMs += wall
	cpuConsumed := wall * speed
	i.snap.UserCPU += msToDur(cpuConsumed)

	// Single-threaded phases block the event loop for their whole wall
	// duration; threadpool work leaves the loop responsive.
	if par <= 1 {
		st.lagSamples = append(st.lagSamples, wall)
	} else {
		st.lagSamples = append(st.lagSamples, i.rng.Uniform(0.1, 1.0))
	}

	// cgroup CPU throttling descheds the process ~10×(1-share) times per
	// second of runtime when below one vCPU.
	share := res.CPUShare(i.mem)
	if share < 1 {
		descheds := wall / 1000 * 10 * (1 - share)
		i.snap.InvolCtx += int64(math.Ceil(descheds))
	}
	i.snap.VolCtx++
}

func (i *Instance) execService(st *execState, o workload.ServiceOp, noise, drift float64) error {
	res := &i.env.Platform.Resources
	profile, err := i.env.Services.Profile(o.Service)
	if err != nil {
		return err
	}
	for c := 0; c < o.Calls; c++ {
		remote, err := i.env.Services.SampleLatency(o.Service, i.rng)
		if err != nil {
			return err
		}
		// Remote processing: pure wait, memory-independent.
		st.wallMs += remote * drift

		// Transfer rides the min of the function's and the service's
		// bandwidth — the memory-dependent part of a service call.
		bw := math.Min(res.NetBandwidthMBps(i.mem)*i.speedFactor, profile.ServerBandwidthMBps)
		transferMB := (o.RequestKB + o.ResponseKB) / 1024
		if transferMB > 0 && bw > 0 {
			st.wallMs += i.rng.Jitter(transferMB/bw*1000, noise) * drift
		}

		// Client-side SDK CPU (marshaling, TLS).
		gc := res.GCSlowdown(i.mem, st.heapMB)
		speed := res.SingleThreadSpeed(i.mem) * i.speedFactor
		clientWork := profile.ClientCPUMs * gc
		clientWall := i.rng.Jitter(clientWork/speed, noise) * drift
		st.wallMs += clientWall
		i.snap.UserCPU += msToDur(clientWall * speed)
		i.snap.SystemCPU += msToDur(0.15)

		i.receive(st, o.ResponseKB)
		i.transmit(st, o.RequestKB)
		i.snap.VolCtx += 2
		st.lagSamples = append(st.lagSamples, i.rng.Uniform(0.05, 0.8))
	}
	return nil
}

// receive accounts kb arriving at the instance's network interface.
func (i *Instance) receive(st *execState, kb float64) {
	if kb <= 0 {
		return
	}
	bytes := int64(kb * 1024)
	i.snap.BytesRecv += bytes
	i.snap.PktsRecv += pkts(bytes)
	st.bytesRecv += bytes
}

// transmit accounts kb leaving the instance's network interface.
func (i *Instance) transmit(st *execState, kb float64) {
	if kb <= 0 {
		return
	}
	bytes := int64(kb * 1024)
	i.snap.BytesSent += bytes
	i.snap.PktsSent += pkts(bytes)
	st.bytesSent += bytes
}

// finishInvocation refreshes the instantaneous gauges.
func (i *Instance) finishInvocation(st *execState) {
	res := &i.env.Platform.Resources
	// A fraction of transient allocations survives until the post-handler
	// gauge read (not yet collected).
	residual := st.mallocPeakMB * i.rng.Uniform(0.05, 0.25)
	heapUsed := st.heapMB + residual
	i.snap.HeapUsedMB = heapUsed
	i.snap.HeapTotalMB = heapUsed*1.2 + 4
	i.snap.HeapLimitMB = res.AvailableHeapMB(i.mem)
	i.snap.AvailableHeapMB = math.Max(i.snap.HeapLimitMB-i.snap.HeapTotalMB, 0)
	i.snap.PhysicalHeapMB = i.snap.HeapTotalMB + 2
	i.snap.MallocMemMB = st.mallocPeakMB
	transferMB := float64(st.bytesRecv+st.bytesSent) / (1024 * 1024)
	i.snap.ExternalMemMB = math.Min(transferMB*0.5, 64) + 1
	i.snap.RSSMB = i.snap.HeapTotalMB + 30 + i.snap.ExternalMemMB
	if i.snap.RSSMB > i.snap.MaxRSSMB {
		i.snap.MaxRSSMB = i.snap.RSSMB
	}
	i.snap.InvolCtx += int64(i.rng.Intn(3))
	i.snap.BytecodeMetaMB = i.spec.CodeMB * 0.4
}

// lagStats reduces event-loop lag samples to the perf_hooks window stats.
func lagStats(samples []float64, rng *xrand.Stream) monitoring.LagSample {
	if len(samples) == 0 {
		v := rng.Uniform(0.05, 0.5)
		return monitoring.LagSample{Min: v, Max: v, Mean: v, Std: 0}
	}
	min, max := math.Inf(1), math.Inf(-1)
	var sum float64
	for _, s := range samples {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
		sum += s
	}
	mean := sum / float64(len(samples))
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(samples)))
	return monitoring.LagSample{Min: min, Max: max, Mean: mean, Std: std}
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

func pkts(bytes int64) int64 {
	const mtuPayload = 1448
	return (bytes + mtuPayload - 1) / mtuPayload
}

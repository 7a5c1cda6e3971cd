package platform

// ResourceModel captures how worker resources scale with the configured
// memory size. Defaults reflect the measurement literature on AWS Lambda
// (Wang et al. ATC'18 [49]; the paper's own Fig. 1 shapes).
type ResourceModel struct {
	// FullCPUAtMB is the memory size at which the function receives one
	// full vCPU (1792 MB on AWS Lambda).
	FullCPUAtMB float64
	// MaxVCPUs caps the total CPU share (2 vCPUs on the workers of the
	// era; only multi-threaded work can exploit the second core).
	MaxVCPUs float64
	// ThrottleOverhead is the extra fraction of runtime added per unit of
	// "missing" CPU share when the share is below one vCPU. cgroup CPU
	// throttling descheds the process at period boundaries, which costs
	// more than the pure time-slice arithmetic — this term produces the
	// super-linear speedups the paper observes (PrimeNumbers, Fig. 1).
	ThrottleOverhead float64
	// NetBaseMBps and NetPerMBps define network bandwidth as
	// min(NetCapMBps, NetBaseMBps + NetPerMBps*memMB).
	NetBaseMBps float64
	NetPerMBps  float64
	NetCapMBps  float64
	// IOBaseMBps etc. define /tmp file-system bandwidth the same way.
	IOBaseMBps float64
	IOPerMBps  float64
	IOCapMBps  float64
	// RuntimeOverheadMB is memory consumed by the language runtime itself,
	// unavailable to the function's heap.
	RuntimeOverheadMB float64
	// GCPressureFactor scales the GC slowdown when the heap approaches the
	// memory limit; GCPressureKnee is the heap/available ratio where the
	// slowdown starts.
	GCPressureFactor float64
	GCPressureKnee   float64
}

// DefaultResourceModel returns a new copy of the calibrated AWS-Lambda-like
// model used throughout the reproduction. The model's methods take a
// pointer receiver because the simulator calls them on every phase, and a
// value receiver would copy the 104-byte struct on each call.
func DefaultResourceModel() *ResourceModel {
	return &ResourceModel{
		FullCPUAtMB:       1792,
		MaxVCPUs:          2.0,
		ThrottleOverhead:  0.20,
		NetBaseMBps:       2.0,
		NetPerMBps:        0.045,
		NetCapMBps:        80,
		IOBaseMBps:        10,
		IOPerMBps:         0.10,
		IOCapMBps:         190,
		RuntimeOverheadMB: 40,
		GCPressureFactor:  1.6,
		GCPressureKnee:    0.55,
	}
}

// CPUShare returns the vCPU share allocated at memory size m.
func (r *ResourceModel) CPUShare(m MemorySize) float64 {
	share := float64(m) / r.FullCPUAtMB
	if share > r.MaxVCPUs {
		return r.MaxVCPUs
	}
	return share
}

// SingleThreadSpeed returns the effective speed (relative to one full vCPU)
// for single-threaded work, including the throttling penalty below one vCPU.
func (r *ResourceModel) SingleThreadSpeed(m MemorySize) float64 {
	share := r.CPUShare(m)
	if share >= 1 {
		return 1
	}
	// Throttled: effective speed is the share reduced by the descheduling
	// overhead, which grows as the share shrinks.
	return share / (1 + r.ThrottleOverhead*(1-share))
}

// ParallelSpeed returns the effective speed for work that can use up to
// `parallelism` threads (e.g. libuv's threadpool for crypto/zlib/fs).
func (r *ResourceModel) ParallelSpeed(m MemorySize, parallelism float64) float64 {
	if parallelism < 1 {
		parallelism = 1
	}
	share := r.CPUShare(m)
	if share > parallelism {
		share = parallelism
	}
	if share >= 1 {
		return share
	}
	return share / (1 + r.ThrottleOverhead*(1-share))
}

// NetBandwidthMBps returns the network bandwidth at memory size m.
func (r *ResourceModel) NetBandwidthMBps(m MemorySize) float64 {
	bw := r.NetBaseMBps + r.NetPerMBps*float64(m)
	if bw > r.NetCapMBps {
		return r.NetCapMBps
	}
	return bw
}

// IOBandwidthMBps returns the /tmp file-system bandwidth at memory size m.
func (r *ResourceModel) IOBandwidthMBps(m MemorySize) float64 {
	bw := r.IOBaseMBps + r.IOPerMBps*float64(m)
	if bw > r.IOCapMBps {
		return r.IOCapMBps
	}
	return bw
}

// AvailableHeapMB returns the memory available to the function's heap after
// runtime overhead.
func (r *ResourceModel) AvailableHeapMB(m MemorySize) float64 {
	avail := float64(m) - r.RuntimeOverheadMB
	if avail < 16 {
		return 16
	}
	return avail
}

// GCSlowdown returns the multiplicative CPU-phase slowdown caused by memory
// pressure when the function's working set occupies heapMB of the available
// heap. It is 1 (no slowdown) while the occupancy is below the knee and
// grows smoothly as the heap approaches the limit — modelling V8's
// increasingly frequent collections near the cgroup memory cap.
func (r *ResourceModel) GCSlowdown(m MemorySize, heapMB float64) float64 {
	if heapMB <= 0 {
		return 1
	}
	occupancy := heapMB / r.AvailableHeapMB(m)
	if occupancy <= r.GCPressureKnee {
		return 1
	}
	// Quadratic growth past the knee; occupancy can exceed 1 in an
	// over-committed configuration, which yields a severe (but finite)
	// slowdown rather than an OOM kill, matching Node's behaviour of
	// thrashing before the container is killed.
	excess := occupancy - r.GCPressureKnee
	return 1 + r.GCPressureFactor*excess*excess/(r.GCPressureKnee*r.GCPressureKnee)
}

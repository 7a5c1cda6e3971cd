package runtime

import (
	"testing"
	"time"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

func cpuSpec(workMs float64) *workload.Spec {
	return &workload.Spec{
		Name:       "cpu-fn",
		Ops:        []workload.Op{workload.CPUOp{Label: "calc", WorkMs: workMs, Parallelism: 1}},
		BaseHeapMB: 20,
		CodeMB:     2,
		NoiseCoV:   0, // deterministic for tests
	}
}

func serviceSpec() *workload.Spec {
	return &workload.Spec{
		Name: "svc-fn",
		Ops: []workload.Op{
			workload.ServiceOp{Service: services.ExternalAPI, Op: "GET", Calls: 2, RequestKB: 1, ResponseKB: 4},
		},
		BaseHeapMB: 20,
		CodeMB:     2,
		NoiseCoV:   0,
	}
}

// invokeOnce runs one warm invocation on a fresh instance with a fixed seed.
func invokeOnce(t *testing.T, spec *workload.Spec, m platform.MemorySize, seed int64) (time.Duration, *Instance) {
	t.Helper()
	env := NewEnv()
	inst, err := NewInstance(env, spec, m, xrand.New(seed).Derive("inst"))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := inst.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	return d, inst
}

func TestCPUBoundScalesWithMemory(t *testing.T) {
	spec := cpuSpec(500)
	var prev time.Duration
	durations := make(map[platform.MemorySize]time.Duration)
	for _, m := range platform.StandardSizes() {
		d, _ := invokeOnce(t, spec, m, 1)
		durations[m] = d
		if prev != 0 && d > prev {
			t.Errorf("CPU-bound time should not increase with memory: %v at %v > %v", d, m, prev)
		}
		prev = d
	}
	// Super-linear below one vCPU: halving from 128 to 256 more than
	// halves the time (throttle-overhead effect, paper Fig. 1).
	if r := float64(durations[128]) / float64(durations[256]); r <= 2 {
		t.Errorf("expected super-linear speedup 128→256, ratio = %v", r)
	}
	// Single-threaded work saturates at/above 1792 MB.
	if r := float64(durations[2048]) / float64(durations[3008]); r > 1.01 {
		t.Errorf("single-threaded work should saturate past 1792MB, ratio = %v", r)
	}
	// Sanity: at 3008 MB, 500 ms of work takes about 500 ms of wall time.
	if durations[3008] < 400*time.Millisecond || durations[3008] > 650*time.Millisecond {
		t.Errorf("3008MB duration = %v, want ~500ms", durations[3008])
	}
}

func TestParallelWorkKeepsScalingPast1792(t *testing.T) {
	spec := &workload.Spec{
		Name:       "par-fn",
		Ops:        []workload.Op{workload.CPUOp{Label: "gzip", WorkMs: 400, Parallelism: 2}},
		BaseHeapMB: 20,
		NoiseCoV:   0,
	}
	d2048, _ := invokeOnce(t, spec, platform.Mem2048, 1)
	d3008, _ := invokeOnce(t, spec, platform.Mem3008, 1)
	if float64(d3008) >= float64(d2048)*0.95 {
		t.Errorf("parallel work should keep speeding up: 2048=%v 3008=%v", d2048, d3008)
	}
}

func TestServiceBoundFlatAcrossMemory(t *testing.T) {
	spec := serviceSpec()
	d128, _ := invokeOnce(t, spec, platform.Mem128, 1)
	d3008, _ := invokeOnce(t, spec, platform.Mem3008, 1)
	// Remote latency dominates; allow modest improvement from transfer +
	// client CPU but nothing like CPU-bound scaling.
	ratio := float64(d128) / float64(d3008)
	if ratio > 2.0 {
		t.Errorf("service-bound function scaled too much with memory: ratio %v", ratio)
	}
	if d3008 > d128 {
		t.Errorf("more memory should never slow a function down: %v vs %v", d128, d3008)
	}
}

func TestGCPressureReliefWithMemory(t *testing.T) {
	// 70 MB heap: thrashes at 128 MB, comfortable at 1024 MB.
	heavy := &workload.Spec{
		Name: "heap-fn",
		Ops: []workload.Op{
			workload.AllocOp{MB: 50},
			workload.CPUOp{Label: "process", WorkMs: 100, Parallelism: 1},
		},
		BaseHeapMB: 20,
		NoiseCoV:   0,
	}
	light := &workload.Spec{
		Name: "light-fn",
		Ops: []workload.Op{
			workload.CPUOp{Label: "process", WorkMs: 100, Parallelism: 1},
		},
		BaseHeapMB: 20,
		NoiseCoV:   0,
	}
	dHeavy, _ := invokeOnce(t, heavy, platform.Mem128, 1)
	dLight, _ := invokeOnce(t, light, platform.Mem128, 1)
	// The heavy function pays a GC penalty at 128 MB beyond its small
	// extra allocation CPU.
	if float64(dHeavy) < float64(dLight)*1.15 {
		t.Errorf("expected GC penalty at 128MB: heavy=%v light=%v", dHeavy, dLight)
	}
	dHeavyBig, _ := invokeOnce(t, heavy, platform.Mem1024, 1)
	dLightBig, _ := invokeOnce(t, light, platform.Mem1024, 1)
	if float64(dHeavyBig) > float64(dLightBig)*1.10 {
		t.Errorf("GC penalty should vanish at 1024MB: heavy=%v light=%v", dHeavyBig, dLightBig)
	}
}

func TestCountersCumulativeAcrossInvocations(t *testing.T) {
	env := NewEnv()
	inst, err := NewInstance(env, serviceSpec(), platform.Mem512, xrand.New(3).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inst.Invoke(); err != nil {
		t.Fatal(err)
	}
	s1 := inst.Snapshot()
	if _, _, err := inst.Invoke(); err != nil {
		t.Fatal(err)
	}
	s2 := inst.Snapshot()
	if s2.BytesRecv <= s1.BytesRecv {
		t.Error("BytesRecv should accumulate across invocations")
	}
	if s2.UserCPU <= s1.UserCPU {
		t.Error("UserCPU should accumulate across invocations")
	}
	if s2.MaxRSSMB < s1.MaxRSSMB {
		t.Error("MaxRSS must be monotone")
	}
}

func TestColdStartInit(t *testing.T) {
	env := NewEnv()
	inst, err := NewInstance(env, cpuSpec(10), platform.Mem128, xrand.New(4).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	before := inst.Snapshot()
	initDur := inst.RunInit()
	after := inst.Snapshot()
	if initDur <= env.Platform.ColdStartBase {
		t.Errorf("init duration %v should exceed the platform base %v", initDur, env.Platform.ColdStartBase)
	}
	if after.UserCPU <= before.UserCPU {
		t.Error("init should consume CPU (module loading)")
	}
	// Second init is a no-op.
	if d := inst.RunInit(); d != 0 {
		t.Errorf("second RunInit = %v, want 0", d)
	}

	// Cold start shrinks with memory.
	instBig, err := NewInstance(env, cpuSpec(10), platform.Mem2048, xrand.New(4).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	if big := instBig.RunInit(); big >= initDur {
		t.Errorf("cold start at 2048MB (%v) should beat 128MB (%v)", big, initDur)
	}
}

func TestMonitorIntegration(t *testing.T) {
	env := NewEnv()
	spec := serviceSpec()
	inst, err := NewInstance(env, spec, platform.Mem512, xrand.New(5).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	store := monitoring.NewMemoryStore()
	mon := &monitoring.Monitor{FunctionID: spec.Name, Probe: inst, Store: store}

	inv, err := mon.Record(0, false, func() (time.Duration, monitoring.LagSample, error) {
		return inst.Invoke()
	})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Metrics[monitoring.ExecutionTime] <= 0 {
		t.Error("executionTime should be positive")
	}
	// Two ExternalAPI calls with 4 KB responses plus no payload: 8 KB received.
	if got := inv.Metrics[monitoring.BytesReceived]; got != 8*1024 {
		t.Errorf("netByteRx = %v, want 8192", got)
	}
	if got := inv.Metrics[monitoring.PackagesReceived]; got <= 0 {
		t.Error("packets received should be positive")
	}
	if got := inv.Metrics[monitoring.HeapUsed]; got < spec.BaseHeapMB {
		t.Errorf("heapUsed = %v, want >= base heap %v", got, spec.BaseHeapMB)
	}
	// CPU time must not exceed wall time times the CPU share.
	share := env.Platform.Resources.CPUShare(platform.Mem512)
	if cpu, wall := inv.Metrics[monitoring.UserCPUTime], inv.Metrics[monitoring.ExecutionTime]; cpu > wall*share*1.2 {
		t.Errorf("user CPU %v implausibly high for wall %v at share %v", cpu, wall, share)
	}
}

func TestEventLoopLagReflectsSyncBlocks(t *testing.T) {
	// A single-threaded CPU block produces a max lag close to the block
	// duration; a service-bound function keeps the loop responsive.
	blockSpec := cpuSpec(200)
	_, instA := invokeOnce(t, blockSpec, platform.Mem3008, 1)
	_ = instA
	env := NewEnv()
	inst, err := NewInstance(env, blockSpec, platform.Mem3008, xrand.New(1).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	d, lag, err := inst.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if lag.Max < float64(d)/float64(time.Millisecond)*0.8 {
		t.Errorf("sync block should drive max lag near duration: lag=%v dur=%v", lag.Max, d)
	}

	instSvc, err := NewInstance(env, serviceSpec(), platform.Mem3008, xrand.New(1).Derive("j"))
	if err != nil {
		t.Fatal(err)
	}
	_, lagSvc, err := instSvc.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if lagSvc.Max > 10 {
		t.Errorf("service-bound function should have small lag, got %v", lagSvc.Max)
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	spec := serviceSpec()
	spec.NoiseCoV = 0.2
	d1, i1 := invokeOnce(t, spec, platform.Mem512, 42)
	d2, i2 := invokeOnce(t, spec, platform.Mem512, 42)
	if d1 != d2 {
		t.Errorf("same seed must reproduce durations: %v vs %v", d1, d2)
	}
	if i1.Snapshot() != i2.Snapshot() {
		t.Error("same seed must reproduce snapshots")
	}
}

func TestDriftSlowsExecution(t *testing.T) {
	spec := cpuSpec(100)
	env := NewEnv()
	inst, err := NewInstance(env, spec, platform.Mem512, xrand.New(9).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := inst.Invoke()
	if err != nil {
		t.Fatal(err)
	}

	envDrift := NewEnv()
	envDrift.Drift = 1.5
	instD, err := NewInstance(envDrift, spec, platform.Mem512, xrand.New(9).Derive("i"))
	if err != nil {
		t.Fatal(err)
	}
	slowed, _, err := instD.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(slowed) / float64(base)
	if ratio < 1.4 || ratio > 1.6 {
		t.Errorf("drift 1.5 should scale duration ~1.5×, got %v", ratio)
	}
}

func TestNewInstanceErrors(t *testing.T) {
	env := NewEnv()
	if _, err := NewInstance(nil, cpuSpec(1), platform.Mem128, xrand.New(1)); err == nil {
		t.Error("nil env should error")
	}
	bad := &workload.Spec{Name: ""}
	if _, err := NewInstance(env, bad, platform.Mem128, xrand.New(1)); err == nil {
		t.Error("invalid spec should error")
	}
	if _, err := NewInstance(env, cpuSpec(1), platform.MemorySize(100), xrand.New(1)); err == nil {
		t.Error("invalid memory size should error")
	}
}

func TestSleepIndependentOfMemory(t *testing.T) {
	spec := &workload.Spec{
		Name:       "sleep-fn",
		Ops:        []workload.Op{workload.SleepOp{Ms: 50}},
		BaseHeapMB: 10,
		NoiseCoV:   0,
	}
	d128, _ := invokeOnce(t, spec, platform.Mem128, 1)
	d3008, _ := invokeOnce(t, spec, platform.Mem3008, 1)
	if d128 != d3008 {
		t.Errorf("sleep should be memory-independent: %v vs %v", d128, d3008)
	}
	if d128 < 49*time.Millisecond || d128 > 51*time.Millisecond {
		t.Errorf("sleep duration = %v, want ~50ms", d128)
	}
}

func TestFileIOScalesWithMemory(t *testing.T) {
	spec := &workload.Spec{
		Name:       "io-fn",
		Ops:        []workload.Op{workload.FileWriteOp{MB: 20}, workload.FileReadOp{MB: 20}},
		BaseHeapMB: 10,
		NoiseCoV:   0,
	}
	d128, inst := invokeOnce(t, spec, platform.Mem128, 1)
	d1024, _ := invokeOnce(t, spec, platform.Mem1024, 1)
	if d1024 >= d128 {
		t.Errorf("file I/O should speed up with memory: %v vs %v", d128, d1024)
	}
	snap := inst.Snapshot()
	if snap.FSReads != 320 || snap.FSWrites != 320 {
		t.Errorf("fs op counts = %d/%d, want 320/320", snap.FSReads, snap.FSWrites)
	}
}

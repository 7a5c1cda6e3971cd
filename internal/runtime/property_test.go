package runtime

import (
	"testing"

	"sizeless/internal/fngen"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// Property: for ANY generated function, noise-free execution time is
// non-increasing in memory size — the physical invariant the optimizer and
// the prediction monotonicity projection rely on.
func TestExecutionTimeMonotoneInMemoryProperty(t *testing.T) {
	gen := fngen.New(xrand.New(314), fngen.Options{})
	fns, err := gen.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	for _, spec := range fns {
		spec.NoiseCoV = 0 // isolate the deterministic resource model
		var prev float64
		for i, m := range platform.StandardSizes() {
			inst, err := NewInstance(env, spec, m, xrand.New(99).Derive(spec.Name))
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := inst.Invoke()
			if err != nil {
				t.Fatalf("%s at %v: %v", spec.Name, m, err)
			}
			ms := float64(d.Milliseconds())
			if i > 0 && ms > prev*1.001 {
				t.Errorf("%s (segments %v): time increased %v→%v at %v",
					spec.Name, spec.SegmentNames, prev, ms, m)
			}
			prev = ms
		}
	}
}

// Property: user CPU time never exceeds wall time multiplied by the CPU
// share — the runtime cannot consume CPU it was not allocated.
func TestCPUTimeBoundedByShareProperty(t *testing.T) {
	gen := fngen.New(xrand.New(271), fngen.Options{})
	fns, err := gen.Generate(25)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	res := env.Platform.Resources
	for _, fn := range fns {
		for _, m := range []platform.MemorySize{platform.Mem128, platform.Mem512, platform.Mem3008} {
			inst, err := NewInstance(env, fn, m, xrand.New(55).Derive(fn.Name))
			if err != nil {
				t.Fatal(err)
			}
			before := inst.Snapshot()
			d, _, err := inst.Invoke()
			if err != nil {
				t.Fatal(err)
			}
			after := inst.Snapshot()
			cpu := (after.UserCPU - before.UserCPU).Seconds()
			wall := d.Seconds()
			share := res.CPUShare(m)
			// Allow a small tolerance for the speed-factor jitter (±10%).
			if cpu > wall*share*1.15 {
				t.Errorf("%s at %v: cpu %.4fs exceeds wall %.4fs × share %.3f",
					fn.Name, m, cpu, wall, share)
			}
		}
	}
}

// Property: metric vectors contain no negative values for counters and
// gauges across random functions.
func TestMetricsNonNegativeProperty(t *testing.T) {
	gen := fngen.New(xrand.New(161), fngen.Options{})
	fns, err := gen.Generate(25)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	for _, fn := range fns {
		inst, err := NewInstance(env, fn, platform.Mem256, xrand.New(44).Derive(fn.Name))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := inst.Invoke(); err != nil {
			t.Fatal(err)
		}
		s := inst.Snapshot()
		checks := map[string]float64{
			"userCPU":   s.UserCPU.Seconds(),
			"sysCPU":    s.SystemCPU.Seconds(),
			"volCtx":    float64(s.VolCtx),
			"involCtx":  float64(s.InvolCtx),
			"fsReads":   float64(s.FSReads),
			"fsWrites":  float64(s.FSWrites),
			"bytesRecv": float64(s.BytesRecv),
			"bytesSent": float64(s.BytesSent),
			"heapUsed":  s.HeapUsedMB,
			"rss":       s.RSSMB,
			"maxRss":    s.MaxRSSMB,
		}
		for name, v := range checks {
			if v < 0 {
				t.Errorf("%s: %s = %v < 0", fn.Name, name, v)
			}
		}
	}
}

// Property: a spec executed twice on one instance yields strictly
// accumulating counters (cumulative semantics the monitor's diff relies on).
func TestCountersNeverDecreaseProperty(t *testing.T) {
	gen := fngen.New(xrand.New(100), fngen.Options{})
	fns, err := gen.Generate(10)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	for _, fn := range fns {
		inst, err := NewInstance(env, fn, platform.Mem512, xrand.New(77).Derive(fn.Name))
		if err != nil {
			t.Fatal(err)
		}
		var prev workloadCounters
		for k := 0; k < 3; k++ {
			if _, _, err := inst.Invoke(); err != nil {
				t.Fatal(err)
			}
			s := inst.Snapshot()
			cur := workloadCounters{
				s.UserCPU.Nanoseconds(), int64(s.VolCtx), s.FSReads, s.FSWrites, s.BytesRecv, s.BytesSent,
			}
			if k > 0 && !cur.atLeast(prev) {
				t.Fatalf("%s: counters decreased between invocations", fn.Name)
			}
			prev = cur
		}
	}
}

type workloadCounters struct {
	cpu, vol, fsr, fsw, rx, tx int64
}

func (c workloadCounters) atLeast(o workloadCounters) bool {
	return c.cpu >= o.cpu && c.vol >= o.vol && c.fsr >= o.fsr &&
		c.fsw >= o.fsw && c.rx >= o.rx && c.tx >= o.tx
}

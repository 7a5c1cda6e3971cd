package platform

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStandardSizes(t *testing.T) {
	sizes := StandardSizes()
	want := []MemorySize{128, 256, 512, 1024, 2048, 3008}
	if len(sizes) != len(want) {
		t.Fatalf("got %d sizes, want %d", len(sizes), len(want))
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %v, want %v", i, sizes[i], want[i])
		}
	}
	// Mutating the returned slice must not affect subsequent calls.
	sizes[0] = 999
	if StandardSizes()[0] != 128 {
		t.Error("StandardSizes returned a shared slice")
	}
}

func TestAllSizes64MB(t *testing.T) {
	sizes := AllSizes64MB()
	if len(sizes) != 46 {
		t.Fatalf("got %d sizes, want 46", len(sizes))
	}
	if sizes[0] != 128 || sizes[len(sizes)-1] != 3008 {
		t.Errorf("range = [%v, %v], want [128MB, 3008MB]", sizes[0], sizes[len(sizes)-1])
	}
	for _, s := range sizes {
		if !DefaultConfig().ValidSize(s) {
			t.Errorf("size %v should be valid", s)
		}
	}
}

// TestMemorySizeValid pins the zero-grid fallback of Config.ValidSize:
// the AWS Lambda grid of the paper's era, 128..3008 MB in 64 MB steps.
func TestMemorySizeValid(t *testing.T) {
	tests := []struct {
		m    MemorySize
		want bool
	}{
		{128, true}, {3008, true}, {1024, true},
		{64, false}, {127, false}, {3072, false}, {130, false}, {0, false},
	}
	var c Config
	for _, tt := range tests {
		if got := c.ValidSize(tt.m); got != tt.want {
			t.Errorf("Config{}.ValidSize(%v) = %v, want %v", tt.m, got, tt.want)
		}
	}
}

func TestParseMemorySize(t *testing.T) {
	aws := AWSLambda().Grid()
	for _, s := range []string{"512", "512MB"} {
		m, err := aws.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if m != Mem512 {
			t.Errorf("Parse(%q) = %v, want 512MB", s, m)
		}
	}
	for _, s := range []string{"abc", "-12", "100"} {
		if _, err := aws.Parse(s); err == nil {
			t.Errorf("Parse(%q) should error", s)
		}
	}
}

func TestNearest(t *testing.T) {
	std := StandardSizes()
	tests := []struct {
		m    MemorySize
		want MemorySize
	}{
		{128, 128}, {200, 256}, {190, 128}, {3008, 3008}, {1500, 1024},
		{1537, 2048}, {5000, 3008},
	}
	for _, tt := range tests {
		if got := Nearest(tt.m, std); got != tt.want {
			t.Errorf("Nearest(%v) = %v, want %v", tt.m, got, tt.want)
		}
	}
	if got := Nearest(128, nil); got != 0 {
		t.Errorf("Nearest with no candidates = %v, want 0", got)
	}
}

func TestCPUShareScaling(t *testing.T) {
	r := DefaultResourceModel()
	if got := r.CPUShare(1792); !floatsClose(got, 1, 1e-9) {
		t.Errorf("CPUShare(1792) = %v, want 1", got)
	}
	if got := r.CPUShare(Mem128); !floatsClose(got, 128.0/1792, 1e-9) {
		t.Errorf("CPUShare(128) = %v", got)
	}
	if got := r.CPUShare(MemorySize(4096)); got != 2.0 {
		t.Errorf("CPUShare should cap at MaxVCPUs, got %v", got)
	}
}

func TestSingleThreadSpeedMonotone(t *testing.T) {
	r := DefaultResourceModel()
	prev := 0.0
	for _, m := range StandardSizes() {
		s := r.SingleThreadSpeed(m)
		if s <= prev {
			t.Errorf("SingleThreadSpeed not strictly increasing below saturation at %v: %v <= %v", m, s, prev)
		}
		if s > 1 {
			t.Errorf("SingleThreadSpeed(%v) = %v exceeds 1", m, s)
		}
		if m >= 1792 && s != 1 {
			t.Errorf("SingleThreadSpeed(%v) = %v, want 1 at/above 1792MB", m, s)
		}
		if m < 1792 {
			prev = s
		}
	}
}

func TestSingleThreadSpeedSuperLinear(t *testing.T) {
	// The throttling overhead makes doubling memory MORE than double the
	// speed below one vCPU — the super-linear effect from Fig. 1.
	r := DefaultResourceModel()
	s128 := r.SingleThreadSpeed(Mem128)
	s256 := r.SingleThreadSpeed(Mem256)
	if s256 <= 2*s128 {
		t.Errorf("expected super-linear scaling: speed(256)=%v <= 2*speed(128)=%v", s256, 2*s128)
	}
}

func TestParallelSpeed(t *testing.T) {
	r := DefaultResourceModel()
	// Parallel work keeps speeding up past 1792 MB.
	if p1, p2 := r.ParallelSpeed(1792, 2), r.ParallelSpeed(3008, 2); p2 <= p1 {
		t.Errorf("parallel speed should grow past 1792MB: %v <= %v", p2, p1)
	}
	// But is capped by the requested parallelism.
	if got := r.ParallelSpeed(MemorySize(3584), 1); got != 1 {
		t.Errorf("parallelism-1 work capped at 1 vCPU, got %v", got)
	}
	// Parallelism below 1 is treated as 1.
	if got := r.ParallelSpeed(3008, 0); got != 1 {
		t.Errorf("parallelism 0 should clamp to 1, got %v", got)
	}
}

func TestBandwidthScalingAndCaps(t *testing.T) {
	r := DefaultResourceModel()
	var prevNet, prevIO float64
	for _, m := range StandardSizes() {
		net := r.NetBandwidthMBps(m)
		io := r.IOBandwidthMBps(m)
		if net < prevNet || io < prevIO {
			t.Errorf("bandwidth decreased at %v", m)
		}
		if net > r.NetCapMBps || io > r.IOCapMBps {
			t.Errorf("bandwidth above cap at %v", m)
		}
		prevNet, prevIO = net, io
	}
	if r.NetBandwidthMBps(3008) != r.NetCapMBps {
		t.Errorf("network should saturate at 3008MB: %v", r.NetBandwidthMBps(3008))
	}
}

func TestGCSlowdown(t *testing.T) {
	r := DefaultResourceModel()
	// Tiny heap: no slowdown anywhere.
	for _, m := range StandardSizes() {
		if got := r.GCSlowdown(m, 5); got != 1 {
			t.Errorf("GCSlowdown(%v, 5MB) = %v, want 1", m, got)
		}
	}
	// A 70 MB heap stresses 128 MB but not 1024 MB.
	if got := r.GCSlowdown(Mem128, 70); got <= 1 {
		t.Errorf("GCSlowdown(128MB, 70MB) = %v, want > 1", got)
	}
	if got := r.GCSlowdown(Mem1024, 70); got != 1 {
		t.Errorf("GCSlowdown(1024MB, 70MB) = %v, want 1", got)
	}
	// Monotone: more heap, more slowdown.
	if r.GCSlowdown(Mem128, 80) <= r.GCSlowdown(Mem128, 70) {
		t.Error("GCSlowdown should grow with heap use")
	}
	// Monotone: more memory, less slowdown.
	if r.GCSlowdown(Mem256, 80) >= r.GCSlowdown(Mem128, 80) {
		t.Error("GCSlowdown should shrink with memory size")
	}
	if got := r.GCSlowdown(Mem128, 0); got != 1 {
		t.Errorf("zero heap should have no slowdown, got %v", got)
	}
}

func TestBilledDuration(t *testing.T) {
	p := DefaultPricing()
	tests := []struct {
		d, want time.Duration
	}{
		{0, time.Millisecond},
		{time.Millisecond, time.Millisecond},
		{1500 * time.Microsecond, 2 * time.Millisecond},
		{999 * time.Microsecond, time.Millisecond},
	}
	for _, tt := range tests {
		if got := p.BilledDuration(tt.d); got != tt.want {
			t.Errorf("BilledDuration(%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
	// The pre-December-2020 AWS scheme rounded up to 100 ms.
	legacy := DefaultPricing()
	legacy.BillingGranularity = 100 * time.Millisecond
	if got := legacy.BilledDuration(150 * time.Millisecond); got != 200*time.Millisecond {
		t.Errorf("legacy BilledDuration(150ms) = %v, want 200ms", got)
	}
	if got := legacy.BilledDuration(40 * time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("legacy BilledDuration(40ms) = %v, want 100ms", got)
	}
}

func TestCostPaperExample(t *testing.T) {
	// Paper §2: 3 s at 512 MB costs 3*0.5*0.00001667 + 0.0000002 ≈ $0.0000252.
	p := DefaultPricing()
	got := p.Cost(Mem512, 3*time.Second)
	want := 3*0.5*0.0000166667 + 0.0000002
	if !floatsClose(got, want, 1e-10) {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestCostMonotoneInMemoryForFixedDuration(t *testing.T) {
	p := DefaultPricing()
	prev := 0.0
	for _, m := range StandardSizes() {
		c := p.Cost(m, 100*time.Millisecond)
		if c <= prev {
			t.Errorf("cost should increase with memory at fixed duration: %v at %v", c, m)
		}
		prev = c
	}
}

func TestColdStartDelayShrinksWithMemory(t *testing.T) {
	c := DefaultConfig()
	prev := time.Duration(math.MaxInt64)
	for _, m := range StandardSizes() {
		d := c.ColdStartDelay(m)
		if d > prev {
			t.Errorf("cold start delay should not grow with memory: %v at %v", d, m)
		}
		if d < c.ColdStartBase {
			t.Errorf("cold start delay below platform base: %v", d)
		}
		prev = d
	}
}

// Property: billed duration never bills less than the actual duration and
// never over-bills by more than one granule.
func TestBilledDurationBoundsProperty(t *testing.T) {
	p := DefaultPricing()
	f := func(ms uint16) bool {
		d := time.Duration(ms) * time.Microsecond * 100
		billed := p.BilledDuration(d)
		if d > 0 && billed < d {
			return false
		}
		return billed-d <= p.BillingGranularity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cost is strictly positive and increases with duration.
func TestCostMonotoneDurationProperty(t *testing.T) {
	p := DefaultPricing()
	f := func(ms1, ms2 uint16) bool {
		d1 := time.Duration(ms1) * time.Millisecond
		d2 := time.Duration(ms2) * time.Millisecond
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		c1 := p.Cost(Mem512, d1)
		c2 := p.Cost(Mem512, d2)
		return c1 > 0 && c2 >= c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func floatsClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

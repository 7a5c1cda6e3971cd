package loadgen

import (
	"math"
	"testing"
	"time"

	"sizeless/internal/xrand"
)

func TestPoissonRateAndOrdering(t *testing.T) {
	rng := xrand.New(1).Derive("load")
	sched, err := Poisson(30, 10*time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Expect about 18000 arrivals (30 rps × 600 s) within a few percent.
	want := 18000.0
	if got := float64(len(sched)); math.Abs(got-want)/want > 0.05 {
		t.Errorf("arrivals = %v, want ~%v", got, want)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
	if sched[len(sched)-1] >= 10*time.Minute {
		t.Error("arrival beyond experiment duration")
	}
	if rate := sched.RateOver(10 * time.Minute); math.Abs(rate-30)/30 > 0.05 {
		t.Errorf("estimated rate = %v, want ~30", rate)
	}
}

func TestPoissonExponentialGaps(t *testing.T) {
	// The CoV of exponential inter-arrival gaps is 1.
	rng := xrand.New(2).Derive("load")
	sched, err := Poisson(100, 5*time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(sched); i++ {
		gaps = append(gaps, float64(sched[i]-sched[i-1]))
	}
	mean, varsum := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cov := math.Sqrt(varsum/float64(len(gaps)-1)) / mean
	if math.Abs(cov-1) > 0.05 {
		t.Errorf("gap CoV = %v, want ~1 (exponential)", cov)
	}
}

func TestPoissonErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := Poisson(0, time.Minute, rng); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := Poisson(10, 0, rng); err == nil {
		t.Error("zero duration should error")
	}
}

func TestConstant(t *testing.T) {
	sched, err := Constant(10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 10 {
		t.Errorf("constant schedule has %d arrivals, want 10", len(sched))
	}
	if sched[0] != 0 || sched[1] != 100*time.Millisecond {
		t.Errorf("unexpected pacing: %v %v", sched[0], sched[1])
	}
	if _, err := Constant(-1, time.Second); err == nil {
		t.Error("negative rate should error")
	}
}

func TestBurst(t *testing.T) {
	rest, err := Constant(1, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sched := Burst(5, rest)
	if len(sched) != 5+len(rest) {
		t.Fatalf("burst size wrong: %d", len(sched))
	}
	for i := 0; i < 5; i++ {
		if sched[i] != 0 {
			t.Error("burst arrivals should be at t=0")
		}
	}
}

func TestRateDegenerate(t *testing.T) {
	if got := (Schedule{}).RateOver(time.Minute); got != 0 {
		t.Errorf("empty schedule rate = %v", got)
	}
	if got := (Schedule{0, 0}).RateOver(0); got != 0 {
		t.Errorf("zero-horizon schedule rate = %v", got)
	}
}

func TestRateOver(t *testing.T) {
	// A pure burst has zero span; the horizon-aware RateOver still
	// reports the true average.
	burst := Burst(600, nil)
	if got := burst.RateOver(time.Minute); got != 10 {
		t.Errorf("burst RateOver(1m) = %v, want 10", got)
	}
	if got := (Schedule{time.Second}).RateOver(2 * time.Second); got != 0.5 {
		t.Errorf("single-arrival RateOver = %v, want 0.5", got)
	}
	if got := burst.RateOver(-time.Second); got != 0 {
		t.Errorf("RateOver(<0) = %v, want 0", got)
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a, err := Poisson(30, time.Minute, xrand.New(5).Derive("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Poisson(30, time.Minute, xrand.New(5).Derive("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("schedules differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("schedules differ")
		}
	}
}

package xrand

import (
	"math"
	"testing"
	"testing/quick"

	"sizeless/internal/stats"
)

func TestDeterminismSameSeed(t *testing.T) {
	a := New(1).Derive("component")
	b := New(1).Derive("component")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed and name must yield identical streams")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(1)
	a := root.Derive("a")
	b := root.Derive("b")
	equal := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("streams 'a' and 'b' look correlated: %d equal draws", equal)
	}
}

func TestDeriveOrderIndependence(t *testing.T) {
	// Deriving b before a must not change a's draws.
	root1 := New(7)
	a1 := root1.Derive("a")
	v1 := a1.Float64()

	root2 := New(7)
	_ = root2.Derive("b")
	a2 := root2.Derive("a")
	v2 := a2.Float64()

	if v1 != v2 {
		t.Error("derivation order affected stream output")
	}
}

func TestDeriveIndexedDistinct(t *testing.T) {
	root := New(3)
	s0 := root.DeriveIndexed("fn", 0)
	s1 := root.DeriveIndexed("fn", 1)
	if s0.Float64() == s1.Float64() && s0.Float64() == s1.Float64() {
		t.Error("indexed sub-streams should differ")
	}
	if s0.name == s1.name {
		t.Error("indexed sub-streams should have distinct names")
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(11).Derive("exp")
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}
	if s.Exponential(0) != 0 || s.Exponential(-1) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestLogNormalMoments(t *testing.T) {
	s := New(13).Derive("lognorm")
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.LogNormal(10, 0.4)
	}
	mean := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	cov := math.Sqrt(ss/float64(n-1)) / mean
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("lognormal mean = %v, want ~10", mean)
	}
	if math.Abs(cov-0.4) > 0.03 {
		t.Errorf("lognormal CoV = %v, want ~0.4", cov)
	}
	if got := s.LogNormal(10, 0); got != 10 {
		t.Errorf("zero CoV should be deterministic, got %v", got)
	}
	if got := s.LogNormal(0, 0.5); got != 0 {
		t.Errorf("zero mean should yield 0, got %v", got)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(17).Derive("trunc")
	for i := 0; i < 10000; i++ {
		v := s.TruncNormal(5, 10, 0, 8)
		if v < 0 || v > 8 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
	// Swapped bounds are tolerated.
	v := s.TruncNormal(5, 1, 8, 0)
	if v < 0 || v > 8 {
		t.Errorf("TruncNormal with swapped bounds out of range: %v", v)
	}
}

func TestBoundedParetoBounds(t *testing.T) {
	s := New(19).Derive("pareto")
	for i := 0; i < 10000; i++ {
		v := s.BoundedPareto(1.5, 2, 50)
		if v < 2-1e-9 || v > 50+1e-9 {
			t.Fatalf("BoundedPareto out of bounds: %v", v)
		}
	}
	if got := s.BoundedPareto(0, 2, 50); got != 2 {
		t.Errorf("invalid alpha should return lo, got %v", got)
	}
	if got := s.BoundedPareto(1, 5, 2); got != 5 {
		t.Errorf("invalid bounds should return lo, got %v", got)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	s := New(23).Derive("bern")
	if s.Bernoulli(0) {
		t.Error("p=0 must be false")
	}
	if !s.Bernoulli(1) {
		t.Error("p=1 must be true")
	}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate = %v", rate)
	}
}

func TestJitterUnitMean(t *testing.T) {
	s := New(29).Derive("jitter")
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Jitter(100, 0.2)
	}
	mean := sum / float64(n)
	if math.Abs(mean-100) > 1 {
		t.Errorf("Jitter mean = %v, want ~100", mean)
	}
	if got := s.Jitter(100, 0); got != 100 {
		t.Errorf("zero-CoV jitter should be identity, got %v", got)
	}
}

// Property: all samplers produce finite, in-range values for arbitrary
// (sanitized) parameters.
func TestSamplersFiniteProperty(t *testing.T) {
	f := func(seed int64, mean, cov float64) bool {
		s := New(seed).Derive("prop")
		mean = math.Mod(math.Abs(mean), 1e6)
		cov = math.Mod(math.Abs(cov), 3)
		for i := 0; i < 10; i++ {
			if v := s.LogNormal(mean, cov); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return false
			}
			if v := s.Exponential(mean); math.IsNaN(v) || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(31).Derive("uniint")
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	if got := s.UniformInt(5, 5); got != 5 {
		t.Errorf("degenerate range should return lo, got %d", got)
	}
	if got := s.UniformInt(9, 2); got != 9 {
		t.Errorf("inverted range should return lo, got %d", got)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 200} {
		a := New(77).Derive("perm")
		b := New(77).Derive("perm")
		dst := make([]int, n)
		for round := 0; round < 3; round++ {
			want := a.Perm(n)
			b.PermInto(dst)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d round %d: PermInto[%d] = %d, Perm = %d", n, round, i, dst[i], want[i])
				}
			}
		}
		// Draw streams stay aligned after repeated use.
		if n > 0 && a.Int63() != b.Int63() {
			t.Fatalf("n=%d: streams desynchronized after PermInto", n)
		}
	}
}

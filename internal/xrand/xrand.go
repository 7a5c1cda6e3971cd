// Package xrand provides deterministic randomness for the simulation stack.
//
// Every stochastic component in this repository (service latencies, workload
// parameter draws, arrival processes, neural-network initialization) draws
// from an *xrand.Stream. Streams are derived from a root seed plus a name,
// so two runs with the same seed produce bit-identical datasets regardless
// of goroutine scheduling — each logical component owns its own stream.
//
// The generator behind a Stream is math/rand's lagged-Fibonacci generator,
// reimplemented here with a faster seeding step (see source) and seeded from
// a FNV-1a hash of (seed, name); every draw is bit-identical to
// rand.New(rand.NewSource(seed)). The package adds the distributions the
// simulator needs that the standard library lacks (lognormal, truncated
// normal, bounded Pareto).
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; derive one stream per goroutine via Derive.
type Stream struct {
	rng  *rand.Rand
	seed int64
	name string

	// jitterCov is the cov of the last Jitter draw, and jitterMu and
	// jitterSigma its lognormal parameters (0 until the first draw, which
	// needs cov > 0). A simulated function draws every phase with its one
	// noise CoV, so the logarithms rarely need recomputing.
	jitterCov, jitterMu, jitterSigma float64
}

// New returns a root stream for the given seed.
func New(seed int64) *Stream {
	return &Stream{rng: rand.New(newSource(seed)), seed: seed, name: ""}
}

// Derive returns an independent stream deterministically derived from the
// parent's identity and the given name. Deriving the same name twice yields
// streams with identical output, which lets components be constructed in
// any order (or concurrently) without perturbing each other's draws.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s.name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.FormatInt(s.seed, 16)))
	derived := int64(h.Sum64())
	return &Stream{
		rng:  rand.New(newSource(derived)),
		seed: derived,
		name: s.name + "/" + name,
	}
}

// DeriveIndexed derives a numbered sub-stream, convenient for per-function
// or per-invocation streams.
func (s *Stream) DeriveIndexed(name string, index int) *Stream {
	return s.Derive(name + "#" + strconv.Itoa(index))
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0, n). n must be > 0.
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (s *Stream) Int63() int64 { return s.rng.Int63() }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// PermInto fills dst with a random permutation of [0, len(dst)), drawing
// exactly the sequence Perm draws for the same length — an allocation-free
// drop-in for hot loops that shuffle every iteration (the training engine
// re-permutes the sample order once per epoch).
func (s *Stream) PermInto(dst []int) {
	// The i = 0 iteration always swaps dst[0] with itself but still burns
	// one Intn draw — math/rand.Perm keeps it for Go 1 stream
	// compatibility, and skipping it here would desynchronize the two.
	for i := 0; i < len(dst); i++ {
		j := s.rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
}

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// UniformInt returns a uniform int in [lo, hi]. It requires lo <= hi.
func (s *Stream) UniformInt(lo, hi int) int {
	if lo >= hi {
		return lo
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// Exponential returns an exponential variate with the given mean.
// A non-positive mean yields 0, so callers can express "no delay".
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// LogNormal returns a lognormal variate parameterized by the mean and
// coefficient of variation of the *resulting* distribution (not of the
// underlying normal). This parameterization matches how latency
// distributions are usually reported: "mean 12 ms, CoV 0.3".
func (s *Stream) LogNormal(mean, cov float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cov <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cov*cov)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*s.rng.NormFloat64())
}

// TruncNormal returns a normal variate with the given mean and standard
// deviation, truncated to [lo, hi] by resampling (up to a bounded number of
// attempts, after which it clamps). It requires lo <= hi.
func (s *Stream) TruncNormal(mean, std, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 32; i++ {
		v := mean + std*s.rng.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(math.Max(mean, lo), hi)
}

// BoundedPareto returns a Pareto variate with shape alpha truncated to
// [lo, hi], used for heavy-tailed service latencies. It requires
// 0 < lo < hi and alpha > 0; invalid parameters return lo.
func (s *Stream) BoundedPareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		return lo
	}
	u := s.rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Jitter returns base multiplied by a lognormal factor with unit mean and
// the given coefficient of variation — the standard "multiplicative noise"
// applied to simulated execution phases.
func (s *Stream) Jitter(base, cov float64) float64 {
	if base <= 0 || cov <= 0 {
		return base
	}
	// LogNormal(1, cov), with its parameters memoized: the same
	// expressions give the same bits.
	if cov != s.jitterCov {
		sigma2 := math.Log(1 + cov*cov)
		s.jitterCov, s.jitterMu, s.jitterSigma = cov, math.Log(1)-sigma2/2, math.Sqrt(sigma2)
	}
	return base * math.Exp(s.jitterMu+s.jitterSigma*s.rng.NormFloat64())
}

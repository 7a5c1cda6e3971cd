package xrand

import "math/rand"

// source is math/rand's generator, reimplemented so that seeding is cheap.
// It is the additive lagged-Fibonacci generator
//
//	x[n] = x[n-607] + x[n-273]  (mod 2^64)
//
// whose 607-word register math/rand fills from the Lehmer generator
// x' = 48271·x mod (2^31−1), XORed with a fixed table (rngCooked). Every
// draw is bit-identical to rand.NewSource with the same seed.
//
// math/rand seeds with Schrage's division-based modular product, 1841
// dependent steps per source, and the simulator seeds a source for every
// cold start. Here the product is reduced with the Mersenne identity
// 2^31 ≡ 1, and the three Lehmer values that make up each register word
// advance as three independent chains of stride three.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

var _ rand.Source64 = (*source)(nil)

const (
	srcLen   = 607                                             // register length (the long lag)
	srcTap   = 273                                             // the short lag
	lehmerM  = 1<<31 - 1                                       // the seeding modulus, a Mersenne prime
	lehmerA  = 48271                                           // the seeding multiplier
	zeroAlt  = 89482311                                        // math/rand's stand-in for a zero seed
	srcMask  = 1<<63 - 1                                       // Int63's mask
	lehmerA3 = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM // A³ mod M
)

// cooked is math/rand's rngCooked table. It is not copied here: init
// recovers it from the first srcLen draws of rand.NewSource(1).
var cooked = recoverCooked()

// newSource returns a source seeded like rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// mulmod returns a·x mod 2^31−1 for a, x < 2^31.
func mulmod(a, x uint64) uint64 {
	p := a * x
	p = p&lehmerM + p>>31 // < 2·lehmerM − 1 because p < 2^62
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// Seed implements rand.Source: it resets s to the state
// rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.lehmerFill(seed)
	for i := range s.vec {
		s.vec[i] ^= cooked[i]
	}
}

// lehmerFill resets the lags and fills the register with the Lehmer part
// of the seeded state: word i is x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i],
// where x[0] is the reduced seed.
func (s *source) lehmerFill(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroAlt
	}
	x := uint64(seed)
	for range 20 {
		x = mulmod(lehmerA, x)
	}
	a := mulmod(lehmerA, x)
	b := mulmod(lehmerA, a)
	c := mulmod(lehmerA, b)
	for i := range s.vec {
		s.vec[i] = int64(a<<40 ^ b<<20 ^ c)
		a, b, c = mulmod(lehmerA3, a), mulmod(lehmerA3, b), mulmod(lehmerA3, c)
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & srcMask) }

// recoverCooked solves for math/rand's seeded register from the first
// srcLen draws of rand.NewSource(1) and XORs out the Lehmer part of seed 1,
// leaving the table.
//
// Draw k adds register tap_k to register feed_k and stores the sum in
// feed_k. The feed index visits every register exactly once in the first
// srcLen draws, so at draw k register feed_k still holds its seeded value,
// while register tap_k holds either its seeded value or the sum an earlier
// draw stored there. The system is triangular: walking the draws
// backwards, every seeded value on the right-hand side is already known.
func recoverCooked() [srcLen]int64 {
	ref, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		panic("xrand: math/rand's source is not a Source64")
	}
	var out [srcLen]int64
	var tap, feed, fedAt [srcLen]int
	t, f := 0, srcLen-srcTap
	for k := range out {
		out[k] = int64(ref.Uint64())
		t, f = (t+srcLen-1)%srcLen, (f+srcLen-1)%srcLen
		tap[k], feed[k], fedAt[f] = t, f, k
	}
	var seeded [srcLen]int64
	for k := srcLen - 1; k >= 0; k-- {
		addend := seeded[tap[k]] // fed after draw k, so solved already
		if j := fedAt[tap[k]]; j < k {
			addend = out[j]
		}
		seeded[feed[k]] = out[k] - addend
	}
	var lehmer source
	lehmer.lehmerFill(1)
	for i := range seeded {
		seeded[i] ^= lehmer.vec[i]
	}
	return seeded
}

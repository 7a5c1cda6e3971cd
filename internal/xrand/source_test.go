package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// bitSeeds are seeds whose streams must match math/rand's bit for bit:
// zero and the multiples of the seeding modulus (which math/rand maps to
// 89482311), that stand-in itself, negative seeds (which wrap), the int64
// extremes, and a few ordinary and derived-looking values.
var bitSeeds = []int64{
	0, 1, -1, 2, 7, 89482311,
	lehmerM, -lehmerM, 2 * lehmerM, 3 * lehmerM, -5 * lehmerM, lehmerM - 1, lehmerM + 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	-6093425187406253329, 0x5DEECE66D,
}

const bitDraws = 12000

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range bitSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < bitDraws; i++ {
			if i%3 == 2 {
				if g, w := got.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		// Reseeding a used source starts the same stream over.
		got.Seed(seed)
		ref.Seed(seed)
		for i := 0; i < srcLen+1; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d after Seed, draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestStreamMatchesMathRand drives a Stream and rand.New(rand.NewSource)
// side by side through every distribution the simulator draws from math/rand.
func TestStreamMatchesMathRand(t *testing.T) {
	root := New(42)
	seeds := append([]int64(nil), bitSeeds...)
	for i := 0; i < 4; i++ {
		seeds = append(seeds, root.DeriveIndexed("instance", i).seed)
	}
	covs := []float64{0.15, 0.15, 0.3, 0.05, 0.3, 1e-200, 2.5}
	for _, seed := range seeds {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		same := func(what string, i int, g, w float64) {
			t.Helper()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: %s = %v, math/rand %v", seed, i, what, g, w)
			}
		}
		dst := make([]int, 9)
		for i := 0; i < bitDraws; i++ {
			switch i % 8 {
			case 0:
				same("Float64", i, s.Float64(), ref.Float64())
			case 1:
				n := 1 + i%1000
				if i%5 == 0 {
					n = 1<<40 + i // Intn's 63-bit branch
				}
				if g, w := s.Intn(n), ref.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
				}
			case 2:
				same("NormFloat64", i, s.NormFloat64(), ref.NormFloat64())
			case 3:
				same("Exponential", i, s.Exponential(3.7), ref.ExpFloat64()*3.7)
			case 4:
				g, w := s.Perm(i%13), ref.Perm(i%13)
				for k := range w {
					if g[k] != w[k] {
						t.Fatalf("seed %d draw %d: Perm = %v, math/rand %v", seed, i, g, w)
					}
				}
			case 5:
				s.PermInto(dst)
				w := ref.Perm(len(dst))
				for k := range w {
					if dst[k] != w[k] {
						t.Fatalf("seed %d draw %d: PermInto = %v, math/rand %v", seed, i, dst, w)
					}
				}
			default:
				cov := covs[i%len(covs)]
				sigma2 := math.Log(1 + cov*cov)
				mu := math.Log(1) - sigma2/2
				want := 40 * math.Exp(mu+math.Sqrt(sigma2)*ref.NormFloat64())
				same("Jitter", i, s.Jitter(40, cov), want)
			}
		}
	}
}

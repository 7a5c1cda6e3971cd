package jsonscan

import (
	"math"
	"math/big"
	"math/bits"
)

// float converts the decimal man × 10^exp10, negated if neg, to the
// nearest float64. It reports false where neither the exact fast path nor
// Eisel–Lemire can decide the result; the caller then falls back to
// strconv.ParseFloat.
func float(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>53 == 0 {
		if f, ok := exact(man, exp10, neg); ok {
			return f, true
		}
	}
	return eiselLemire64(man, exp10, neg)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exact converts man × 10^exp10 with one correctly rounded float64
// multiplication or division, where man < 2^53 and the power of ten is
// exact: strconv's atof64exact.
func exact(man uint64, exp10 int, neg bool) (float64, bool) {
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		// Move surplus zeros into the integer while it stays exact.
		if exp10 > 22 {
			f *= pow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * pow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / pow10[-exp10], true
	}
	return 0, false
}

// eiselLemire64 is strconv's eiselLemire64, unchanged but for the names of
// its table and its bounds:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// This file implements the Eisel-Lemire ParseFloat algorithm, published in
// 2020 and discussed extensively at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html
//
// The original C++ implementation is at
// https://github.com/lemire/fast_double_parser/blob/644bef4306059d3be01a04e77d3cc84b379c596f/include/fast_double_parser.h#L840
//
// This Go re-implementation closely follows the C re-implementation at
// https://github.com/google/wuffs/blob/ba3818cb6b473a2ed0b38ecfc07dbbd3a97e8ae7/internal/cgen/base/floatconv-submodule-code.c#L990
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, powersOfTen[exp10-minExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, powersOfTen[exp10-minExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// minExp10 and maxExp10 are the powers of ten of powersOfTen's first and
// last rows.
const (
	minExp10 = -348
	maxExp10 = +347
)

// powersOfTen[q-minExp10] is 10^q's mantissa to 128 bits, rounded down,
// as its low and high 64-bit halves; the top bit is set, and the binary
// exponent is implied by q (see eiselLemire64). It is strconv's
// detailedPowersOfTen, computed here instead of listed.
var powersOfTen = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	var p, m big.Int
	ten := big.NewInt(10)
	for q := minExp10; q <= maxExp10; q++ {
		p.Exp(ten, big.NewInt(int64(abs(q))), nil)
		if q >= 0 {
			// 10^q scaled to exactly 128 bits.
			if n := p.BitLen() - 128; n > 0 {
				m.Rsh(&p, uint(n))
			} else {
				m.Lsh(&p, uint(-n))
			}
		} else {
			// 2^k / 10^-q lies in [2^127, 2^128) for k = bitlen(10^-q) + 127.
			m.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			m.Quo(&m, &p)
		}
		lo := m.Uint64()
		t[q-minExp10] = [2]uint64{lo, m.Rsh(&m, 64).Uint64()}
	}
	return t
}()

func abs(q int) int {
	if q < 0 {
		return -q
	}
	return q
}

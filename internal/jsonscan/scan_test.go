package jsonscan

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// twoPassFloat is the reference Float is held to: the JSON number grammar
// checked on its own, then strconv.ParseFloat over the number's bytes.
func twoPassFloat(s *Scanner, target string) (float64, error) {
	if !s.AtNumber() {
		return 0, s.Mismatch(target)
	}
	start := s.Pos
	num, err := twoPassNumber(s)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		s.Pos = start
		return 0, s.TypeError("number "+string(num), target+" of type float64")
	}
	return f, nil
}

// twoPassNumber is the grammar check twoPassFloat makes.
func twoPassNumber(s *Scanner) ([]byte, error) {
	data, start := s.Data, s.Pos
	digits := func(i int) int {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i
	}
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(i + 1)
	default:
		s.Pos = i
		return nil, s.SyntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			s.Pos = j
			return nil, s.SyntaxError("after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			s.Pos = j
			return nil, s.SyntaxError("in exponent of numeric literal")
		}
		i = j
	}
	s.Pos = i
	return data[start:i], nil
}

// checkFloat fails t unless Float and twoPassFloat agree on data: the
// same error text or the same value bit for bit, and the same Pos after.
func checkFloat(t *testing.T, data []byte) {
	t.Helper()
	got, want := &Scanner{Data: data}, &Scanner{Data: data}
	f, err := got.Float("v")
	wf, wantErr := twoPassFloat(want, "v")
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%q: error %v, want %v", data, err, wantErr)
	case math.Float64bits(f) != math.Float64bits(wf):
		t.Fatalf("%q: %v (%#x), want %v (%#x)", data, f, math.Float64bits(f), wf, math.Float64bits(wf))
	case got.Pos != want.Pos:
		t.Fatalf("%q: Pos %d, want %d", data, got.Pos, want.Pos)
	}
}

// floatSeeds sit on each branch of Float's conversion: the exact path,
// Eisel–Lemire, and every reason to fall back to strconv.
var floatSeeds = []string{
	"0", "-0", "0.0", "-0.0", "1", "-1.5", "0e5", "-0E-400", "123456789", "0.1", "1e22", "1e23",
	"9007199254740992", "9007199254740993", "123456789012345e22",
	// Exactly 19 significant digits, and 20 with a zero or a non-zero last
	// digit; the integer and the fraction forms.
	"1234567890123456789", "12345678901234567890", "12345678901234567891",
	"1.234567890123456789", "1.2345678901234567890", "1.2345678901234567891",
	"0." + strings.Repeat("0", 25) + "1",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324", "5e-324", "2e-324",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"1e400", "-1e400", "1e-400", "1e99999999999999999999", "1e-99999999999999999999",
	// The half-way pair around 1 + 2^-53.
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	// Grammar errors, values that are not numbers, and trailing bytes.
	"", "-", "--1", "+1", "01", "1.", "1.e5", ".5", "1e", "1e+", "1E-x", "1.5e3,", "2]", "x", "{", `"1"`, "null",
}

// FuzzFloat holds Float to twoPassFloat: both accept or reject the same
// bytes, with the same error, the same float64 bits and the same Pos.
func FuzzFloat(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkFloat)
}

// TestFloatEveryPowerOfTen parses a number against every row of the
// powers-of-ten table, both at the power and just below the next.
func TestFloatEveryPowerOfTen(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		checkFloat(t, []byte(fmt.Sprintf("1e%d", q)))
		checkFloat(t, []byte(fmt.Sprintf("9.999999999999999e%d", q)))
	}
}

// TestFloatExponentCap: strconv stops reading an exponent once it
// reaches 10000, so a number whose digits bring a longer exponent back
// into range reads as strconv reads it, not as its true value.
func TestFloatExponentCap(t *testing.T) {
	checkFloat(t, []byte("0."+strings.Repeat("0", 100000)+"1e100005"))
	checkFloat(t, []byte("1"+strings.Repeat("0", 100000)+"e-100005"))
}

// TestPowersOfTenRows checks every row against 10^q's top 128 bits
// rounded down, taken from a 2048-bit big.Float, and four rows against
// the ones strconv lists.
func TestPowersOfTenRows(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		f := new(big.Float).SetPrec(2048).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(q))), nil))
		if q < 0 {
			f.Quo(new(big.Float).SetPrec(2048).SetInt64(1), f)
		}
		mant := new(big.Float)
		f.MantExp(mant)
		want, _ := mant.SetMantExp(mant, 128).Int(nil)
		row := powersOfTen[q-minExp10]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		if got.Or(got, new(big.Int).SetUint64(row[0])); got.Cmp(want) != 0 {
			t.Fatalf("1e%d: %#x, want %#x", q, got, want)
		}
	}
	for q, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		0:    {0x0000000000000000, 0x8000000000000000},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[q-minExp10]; got != want {
			t.Errorf("1e%d: %#x, want %#x", q, got, want)
		}
	}
}

// TestFloatRandom compares Float with the two-pass conversion on random
// floats in the forms encoders write and on long random mantissas.
func TestFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, s := range []string{
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(v, 'e', rng.Intn(30), 64),
			strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)), 'f', -1, 64),
		} {
			checkFloat(t, []byte(s))
		}
		var b strings.Builder
		for n := 1 + rng.Intn(30); n > 0; n-- {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		digits := strings.TrimLeft(b.String(), "0") + "1"
		dot := rng.Intn(len(digits))
		checkFloat(t, []byte(fmt.Sprintf("%s.%se%d", digits[:dot+1], digits[dot+1:]+"0", rng.Intn(701)-350)))
	}
}

package platform

import "testing"

// memorySizeSeeds seed both size fuzzers: well-formed sizes, off-grid and
// out-of-range values, overflow, and trailing garbage ("512MBx", "5 12").
var memorySizeSeeds = []string{
	"256", "512MB", "3008MB", "128", "0", "-128", "100",
	"99999999999999999999", "128.5", "NaNMB", "", "MB", " 512 ",
	"512MBx", "5 12", "+256",
}

// FuzzParseMemorySize checks the grid-free size parser never panics and
// that whatever it accepts is positive and round-trips through String().
func FuzzParseMemorySize(f *testing.F) {
	for _, seed := range memorySizeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseMemoryValue(s)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if m <= 0 {
			t.Fatalf("parseMemoryValue(%q) = %v, not positive", s, m)
		}
		again, err := parseMemoryValue(m.String())
		if err != nil {
			t.Fatalf("round trip of %v: %v", m, err)
		}
		if again != m {
			t.Fatalf("round trip of %v gave %v", m, again)
		}
	})
}

// FuzzGridParse extends the property to provider grids: any accepted size
// must be deployable on the grid that accepted it.
func FuzzGridParse(f *testing.F) {
	for _, seed := range append([]string{"768", "4096MB", "1536", "banana", "-5"}, memorySizeSeeds...) {
		f.Add(seed)
	}
	grids := []Grid{
		AWSLambda().Grid(), GCPCloudFunctions().Grid(), AzureFunctions().Grid(),
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, g := range grids {
			m, err := g.Parse(s)
			if err != nil {
				continue
			}
			if !g.Valid(m) {
				t.Fatalf("grid accepted %q as %v but calls it invalid", s, m)
			}
		}
	})
}

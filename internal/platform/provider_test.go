package platform

import (
	"strings"
	"testing"
	"time"
)

// ---- Grid ----

func TestSteppedGridValidAndSizes(t *testing.T) {
	g := SteppedGrid(128, 1536, 128) // the Azure grid
	for _, m := range []MemorySize{128, 256, 1024, 1536} {
		if !g.Valid(m) {
			t.Errorf("%v should be valid on %v", m, g)
		}
	}
	for _, m := range []MemorySize{0, 64, 192, 1537, 2048, 3008, -128} {
		if g.Valid(m) {
			t.Errorf("%v should be invalid on %v", m, g)
		}
	}
	sizes := g.Sizes()
	if len(sizes) != 12 || sizes[0] != 128 || sizes[len(sizes)-1] != 1536 {
		t.Errorf("Sizes() = %v, want 12 sizes 128..1536", sizes)
	}
}

func TestDiscreteGridValidSortsAndCopies(t *testing.T) {
	g := DiscreteGrid(2048, 128, 512, 1024, 256, 4096) // GCP tiers, unsorted
	sizes := g.Sizes()
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] >= sizes[i] {
			t.Fatalf("Sizes() not ascending: %v", sizes)
		}
	}
	if !g.Valid(4096) {
		t.Error("4096MB is a GCP tier and must be valid (beyond the AWS cap)")
	}
	if g.Valid(3008) {
		t.Error("3008MB is not a GCP tier")
	}
	sizes[0] = 9999
	if g.Sizes()[0] == 9999 {
		t.Error("Sizes() must return a defensive copy")
	}
}

func TestGridZeroAndEmpty(t *testing.T) {
	var zero Grid
	if !zero.IsZero() {
		t.Error("zero Grid should report IsZero")
	}
	if zero.Nearest(512) != 0 {
		t.Error("Nearest on an empty grid should return 0")
	}
	if SteppedGrid(128, 3008, 64).IsZero() {
		t.Error("non-zero grid reported IsZero")
	}
}

func TestGridNearestNonAWS(t *testing.T) {
	gcp := GCPCloudFunctions().Grid()
	cases := []struct {
		in, want MemorySize
	}{
		{100, 128},   // below the grid clamps up
		{192, 128},   // tie between 128 and 256 prefers the smaller
		{300, 256},   // rounds down to the nearer tier
		{3008, 2048}, // AWS's max snaps to a GCP tier (2048 nearer than 4096)
		{9000, 4096}, // above the grid clamps down
	}
	for _, c := range cases {
		if got := gcp.Nearest(c.in); got != c.want {
			t.Errorf("gcp.Nearest(%v) = %v, want %v", c.in, got, c.want)
		}
	}

	azure := AzureFunctions().Grid()
	if got := azure.Nearest(3008); got != 1536 {
		t.Errorf("azure.Nearest(3008MB) = %v, want 1536MB", got)
	}
}

func TestGridParse(t *testing.T) {
	azure := AzureFunctions().Grid()
	for _, s := range []string{"768", "768MB"} {
		m, err := azure.Parse(s)
		if err != nil || m != 768 {
			t.Errorf("azure.Parse(%q) = (%v, %v), want 768MB", s, m, err)
		}
	}
	// 768 is valid on Azure's 128-step grid but NOT on the AWS 64-step
	// grid capped at 3008... (768 is valid on AWS too; use 1408+128=1536
	// vs a size AWS has but Azure lacks).
	if _, err := azure.Parse("2048"); err == nil {
		t.Error("2048MB is off the Azure grid and must not parse")
	}
	if _, err := azure.Parse("banana"); err == nil {
		t.Error("garbage must not parse")
	}
	if _, err := azure.Parse("0"); err == nil {
		t.Error("zero must not parse")
	}
	if _, err := azure.Parse("-128"); err == nil {
		t.Error("negative must not parse")
	}

	gcp := GCPCloudFunctions().Grid()
	if m, err := gcp.Parse("4096MB"); err != nil || m != 4096 {
		t.Errorf("gcp.Parse(4096MB) = (%v, %v), want 4096MB — the AWS grid would reject it", m, err)
	}
	if _, err := AWSLambda().Grid().Parse("4096"); err == nil {
		t.Error("the AWS grid must reject sizes above 3008MB")
	}
}

// ---- Registry ----

func TestRegistryBuiltins(t *testing.T) {
	names := ProviderNames()
	for _, want := range []string{AWSLambdaName, GCPCloudFunctionsName, AzureFunctionsName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q missing from registry (have %v)", want, names)
		}
	}
}

func TestRegistryDuplicateAndUnknown(t *testing.T) {
	if err := RegisterProvider(AWSLambda()); err == nil {
		t.Error("duplicate registration must error")
	}
	if err := RegisterProvider(nil); err == nil {
		t.Error("nil provider must error")
	}
	if err := RegisterProvider(ProviderSpec{ID: "   "}); err == nil {
		t.Error("blank name must error")
	}
	if _, err := LookupProvider("no-such-cloud"); err == nil {
		t.Error("unknown lookup must error")
	} else if !strings.Contains(err.Error(), AWSLambdaName) {
		t.Errorf("unknown-lookup error should list registered names, got: %v", err)
	}
}

func TestRegistryCustomProviderAndCaseInsensitivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Grid = SteppedGrid(64, 512, 64)
	custom := ProviderSpec{
		ID:         "Test-Edge-Cloud",
		Summary:    "test fixture",
		MemoryGrid: cfg.Grid,
		Sizes:      []MemorySize{64, 256, 512},
		Config:     cfg,
	}
	if err := RegisterProvider(custom); err != nil {
		t.Fatal(err)
	}
	p, err := LookupProvider("test-edge-cloud")
	if err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
	if p.Name() != "Test-Edge-Cloud" {
		t.Errorf("lookup returned %q", p.Name())
	}
	if err := RegisterProvider(ProviderSpec{ID: "TEST-EDGE-CLOUD"}); err == nil {
		t.Error("duplicate under different case must error")
	}
}

// ---- Built-in provider semantics ----

func TestProvidersDisagreeOnCost(t *testing.T) {
	d := 50 * time.Millisecond
	aws := AWSLambda().Platform().Pricing
	gcp := GCPCloudFunctions().Platform().Pricing
	azure := AzureFunctions().Platform().Pricing

	// GCP bills 50ms as a full 100ms granule; AWS bills 50 exact granules.
	if got := gcp.BilledDuration(d); got != 100*time.Millisecond {
		t.Errorf("GCP billed %v, want 100ms", got)
	}
	if got := aws.BilledDuration(d); got != 50*time.Millisecond {
		t.Errorf("AWS billed %v, want 50ms", got)
	}
	// Azure's 1ms granularity still charges the 100ms minimum.
	if got := azure.BilledDuration(d); got != 100*time.Millisecond {
		t.Errorf("Azure billed %v, want 100ms minimum", got)
	}
	if got := azure.BilledDuration(150 * time.Millisecond); got != 150*time.Millisecond {
		t.Errorf("Azure billed %v above the minimum, want 150ms", got)
	}

	// The same invocation costs differently on each cloud.
	ca := aws.Cost(1024, d)
	cg := gcp.Cost(1024, d)
	cz := azure.Cost(1024, d)
	if ca <= 0 || cg <= 0 || cz <= 0 {
		t.Fatalf("non-positive costs: aws=%v gcp=%v azure=%v", ca, cg, cz)
	}
	if ca == cg || ca == cz || cg == cz {
		t.Errorf("providers should disagree on cost: aws=%v gcp=%v azure=%v", ca, cg, cz)
	}
}

func TestTieredPricingOffTierRate(t *testing.T) {
	p := GCPCloudFunctions().Platform().Pricing.(TieredPricing)
	exact := p.Cost(2048, time.Second)
	offTier := p.Cost(1792, time.Second) // not a tier; nearest is 2048
	if offTier >= exact {
		t.Errorf("off-tier 1792MB cost %v should be below the 2048MB tier cost %v (memory-ratio scaling)", offTier, exact)
	}
	if offTier <= p.Cost(1024, time.Second) {
		t.Errorf("off-tier 1792MB cost %v should exceed the 1024MB tier cost", offTier)
	}
}

func TestProviderResourceCurvesDiffer(t *testing.T) {
	aws := AWSLambda().Platform().Resources
	gcp := GCPCloudFunctions().Platform().Resources
	azure := AzureFunctions().Platform().Resources

	// At 1792MB AWS grants a full vCPU; GCP is still throttled (full CPU
	// arrives at 2048MB); Azure is already past its single-core ceiling.
	if got := aws.SingleThreadSpeed(1792); got != 1 {
		t.Errorf("AWS speed at 1792MB = %v, want 1", got)
	}
	if got := gcp.SingleThreadSpeed(1792); got >= 1 {
		t.Errorf("GCP speed at 1792MB = %v, want < 1", got)
	}
	if got := azure.CPUShare(1536 * 2); got != 1 {
		t.Errorf("Azure CPU share should cap at 1 vCPU, got %v", got)
	}
	if got := gcp.CPUShare(4096); got != 2 {
		t.Errorf("GCP CPU share at 4096MB = %v, want 2 (the doubled top tier)", got)
	}
}

func TestConfigValidSize(t *testing.T) {
	// Zero grid falls back to the paper-era AWS grid.
	var c Config
	if !c.ValidSize(3008) || c.ValidSize(4096) {
		t.Error("zero-grid Config should apply the AWS grid")
	}
	gcp := GCPCloudFunctions().Platform()
	if !gcp.ValidSize(4096) || gcp.ValidSize(3008) {
		t.Error("GCP Config should validate against the GCP grid")
	}
}

func TestProviderDefaultSizesOnGrid(t *testing.T) {
	for _, name := range ProviderNames() {
		p, err := LookupProvider(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes := p.DefaultSizes()
		if len(sizes) == 0 {
			t.Errorf("%s has no default sizes", name)
		}
		for _, m := range sizes {
			if !p.Grid().Valid(m) {
				t.Errorf("%s default size %v is off its own grid", name, m)
			}
			if !p.Platform().ValidSize(m) {
				t.Errorf("%s platform config rejects its own default size %v", name, m)
			}
		}
	}
}

func TestCommonSizesIntersection(t *testing.T) {
	aws, gcp, azure := AWSLambda(), GCPCloudFunctions(), AzureFunctions()
	got := CommonSizes(aws, gcp, azure)
	want := []MemorySize{128, 256, 512, 1024}
	if len(got) != len(want) {
		t.Fatalf("CommonSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommonSizes = %v, want %v", got, want)
		}
	}
	// Every common size is deployable on every provider's grid.
	for _, p := range []Provider{aws, gcp, azure} {
		for _, m := range got {
			if !p.Grid().Valid(m) {
				t.Errorf("common size %v off %s grid", m, p.Name())
			}
		}
	}
	// A provider repeating a size in its default grid must not defeat the
	// intersection count.
	dup := ProviderSpec{
		ID:         "dup",
		MemoryGrid: SteppedGrid(128, 1024, 128),
		Sizes:      []MemorySize{256, 256, 512},
	}
	got = CommonSizes(dup, aws)
	want = []MemorySize{256, 512}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("CommonSizes with duplicates = %v, want %v", got, want)
	}
	if CommonSizes() != nil {
		t.Error("CommonSizes() should be nil")
	}
}

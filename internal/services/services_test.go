package services

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sizeless/internal/stats"
	"sizeless/internal/xrand"
)

func TestAllKindsHaveProfilesAndNames(t *testing.T) {
	reg := NewRegistry(nil)
	for k := DynamoDB; k <= ExternalAPI; k++ {
		if strings.HasPrefix(k.String(), "service(") {
			t.Errorf("kind %d has no name", int(k))
		}
		p, err := reg.Profile(k)
		if err != nil {
			t.Errorf("kind %v has no default profile", k)
			continue
		}
		if p.BaseLatencyMs <= 0 || p.ServerBandwidthMBps <= 0 {
			t.Errorf("kind %v has degenerate profile %+v", k, p)
		}
	}
	if got := Kind(99).String(); got != "service(99)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestProfileUnknownKind(t *testing.T) {
	reg := NewRegistry(nil)
	if _, err := reg.Profile(Kind(99)); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := reg.SampleLatency(Kind(99), xrand.New(1)); err == nil {
		t.Error("sampling unknown kind should error")
	}
}

func TestSampleLatencyMoments(t *testing.T) {
	reg := NewRegistry(nil)
	rng := xrand.New(42).Derive("svc")
	n := 50000
	samples := make([]float64, n)
	for i := range samples {
		v, err := reg.SampleLatency(DynamoDB, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad latency sample %v", v)
		}
		samples[i] = v
	}
	mean := stats.Mean(samples)
	// Mean should be near base latency (tail adds a little).
	if mean < 6 || mean > 10 {
		t.Errorf("DynamoDB mean latency = %v ms, want ~7-9", mean)
	}
	// Tail must be bounded.
	p, _ := reg.Profile(DynamoDB)
	if max := slices.Max(samples); max > p.TailMaxFactor*p.BaseLatencyMs+1e-9 {
		t.Errorf("latency max %v exceeds tail bound", max)
	}
}

func TestRekognitionSlowerThanDynamoDB(t *testing.T) {
	reg := NewRegistry(nil)
	rng := xrand.New(1).Derive("cmp")
	var sumD, sumR float64
	for i := 0; i < 2000; i++ {
		d, err := reg.SampleLatency(DynamoDB, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, err := reg.SampleLatency(Rekognition, rng)
		if err != nil {
			t.Fatal(err)
		}
		sumD += d
		sumR += r
	}
	if sumR < 10*sumD {
		t.Errorf("Rekognition should be much slower than DynamoDB: %v vs %v", sumR, sumD)
	}
}

func TestSetProfileOverride(t *testing.T) {
	reg := NewRegistry(nil)
	reg.SetProfile(DynamoDB, Profile{BaseLatencyMs: 1000, LatencyCoV: 0, TailProb: 0, TailMaxFactor: 1, ServerBandwidthMBps: 1})
	rng := xrand.New(1)
	v, err := reg.SampleLatency(DynamoDB, rng)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1000 {
		t.Errorf("override not applied: %v", v)
	}
}

func TestRegistryCopiesInput(t *testing.T) {
	profiles := DefaultProfiles()
	reg := NewRegistry(profiles)
	profiles[DynamoDB] = Profile{BaseLatencyMs: 1}
	p, err := reg.Profile(DynamoDB)
	if err != nil {
		t.Fatal(err)
	}
	if p.BaseLatencyMs == 1 {
		t.Error("registry aliases caller's map")
	}
}

func TestSetupTeardownScripts(t *testing.T) {
	for k := DynamoDB; k <= ExternalAPI; k++ {
		if SetupScript(k) == "# unknown service" {
			t.Errorf("no setup script for %v", k)
		}
		if TeardownScript(k) == "# unknown service" {
			t.Errorf("no teardown script for %v", k)
		}
	}
	if SetupScript(Kind(99)) != "# unknown service" {
		t.Error("unknown kind should return sentinel setup script")
	}
}

func TestSampleLatencyDeterministic(t *testing.T) {
	reg := NewRegistry(nil)
	a := xrand.New(7).Derive("x")
	b := xrand.New(7).Derive("x")
	for i := 0; i < 100; i++ {
		va, err := reg.SampleLatency(S3, a)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := reg.SampleLatency(S3, b)
		if err != nil {
			t.Fatal(err)
		}
		if va != vb {
			t.Fatal("latency sampling is not deterministic under identical streams")
		}
	}
}

package monitoring

import (
	"errors"
	"testing"
)

// TestPreparedDetectorMatchesPlain asserts the rank cache is purely an
// optimization: DetectDriftAgainst over a prepared baseline reports
// exactly what detectDrift reports, shifted or stationary, across repeated
// checks of the same baseline.
func TestPreparedDetectorMatchesPlain(t *testing.T) {
	cfg := DriftDetectorConfig{}
	baseline := benchWindow(1, 120, 1)
	prep := PrepareBaseline(baseline, cfg)
	if prep.n != 120 {
		t.Fatalf("prepared baseline N = %d, want 120", prep.n)
	}
	for round, scale := range []float64{1, 3, 1, 0.3} {
		window := benchWindow(int64(100+round), 90, scale)
		want, err := detectDrift(baseline, window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectDriftAgainst(prep, window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Checked != want.Checked || len(got.Shifted) != len(want.Shifted) {
			t.Fatalf("round %d: cached report %+v differs from plain %+v", round, got, want)
		}
		for i := range got.Shifted {
			if got.Shifted[i] != want.Shifted[i] {
				t.Fatalf("round %d shift %d: cached %+v vs plain %+v", round, i, got.Shifted[i], want.Shifted[i])
			}
		}
		// A 3×/0.3× rescale must read as drift (the converse is left to the
		// detector's own property tests — same-scale windows may still trip
		// the strict alpha by chance).
		if scale != 1 && !got.Drifted() {
			t.Errorf("round %d (scale %v): shift not detected", round, scale)
		}
	}
}

func TestPreparedDetectorWindowBounds(t *testing.T) {
	cfg := DriftDetectorConfig{}
	small := benchWindow(2, 10, 1)
	ok := benchWindow(3, 30, 1)
	if _, err := DetectDriftAgainst(PrepareBaseline(small, cfg), ok, cfg); !errors.Is(err, ErrWindowTooSmall) {
		t.Errorf("small baseline: got %v, want ErrWindowTooSmall", err)
	}
	if _, err := DetectDriftAgainst(PrepareBaseline(ok, cfg), small, cfg); !errors.Is(err, ErrWindowTooSmall) {
		t.Errorf("small new window: got %v, want ErrWindowTooSmall", err)
	}
	if _, err := DetectDriftAgainst(nil, ok, cfg); err == nil {
		t.Error("nil prepared baseline should error")
	}
}

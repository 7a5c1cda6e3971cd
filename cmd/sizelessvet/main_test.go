package main

import "testing"

func TestList(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	if got := run([]string{"-only", "nosuch"}); got != 2 {
		t.Errorf("run(-only nosuch) = %d, want 2 (driver error)", got)
	}
}

// TestSuiteCleanOnModule is the smoke test the issue asks for: the full
// suite must load the real module, run every analyzer without panicking,
// and — because every true positive was fixed in this PR — report a clean
// tree.
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped in -short mode")
	}
	if got := run([]string{"./..."}); got != 0 {
		t.Fatalf("run(./...) = %d, want 0 (clean tree)", got)
	}
}

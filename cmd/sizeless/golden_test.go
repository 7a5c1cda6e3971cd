package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenPlanSHA pins the bytes `sizeless plan` prints for one seeded app
// on the default provider: the measurement campaign, the three planning
// modes and their rendering. Update it only for a change that is meant to
// alter seeded planner output, and say so in the change description.
const goldenPlanSHA = "660c6f22dffd79049c9c4d178935b4aaffbc8f22a5f3281234fffb3b646aba13"

func TestGoldenPlanOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("measures an app across the memory grid")
	}
	var out bytes.Buffer
	if err := cmdPlan(context.Background(), &out, []string{"-app", "airline-booking", "-duration", "3s", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenPlanSHA {
		t.Errorf("plan output sha256 = %s, want %s\n%s", got, goldenPlanSHA, out.String())
	}
}

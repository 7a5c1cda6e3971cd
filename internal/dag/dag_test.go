package dag

import (
	"strings"
	"testing"

	"sizeless/internal/platform"
	"sizeless/internal/workload"
)

// spec returns a minimal valid workload spec for graph tests.
func spec(name string, heapMB float64) *workload.Spec {
	return &workload.Spec{
		Name:       name,
		Ops:        []workload.Op{workload.CPUOp{Label: "w", WorkMs: 5, Parallelism: 1}},
		BaseHeapMB: heapMB,
		CodeMB:     2,
		PayloadKB:  2,
		ResponseKB: 1,
		NoiseCoV:   0.1,
	}
}

// flatTimes gives every listed size the same execution time.
func flatTimes(ms float64, sizes ...platform.MemorySize) map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64, len(sizes))
	for _, m := range sizes {
		out[m] = ms
	}
	return out
}

func mustAdd(t *testing.T, g *Graph, s *workload.Spec, times map[platform.MemorySize]float64) {
	t.Helper()
	if err := g.Add(s, times); err != nil {
		t.Fatalf("Add(%s): %v", s.Name, err)
	}
}

func mustConnect(t *testing.T, g *Graph, e Edge) {
	t.Helper()
	if err := g.Connect(e); err != nil {
		t.Fatalf("Connect(%s→%s): %v", e.From, e.To, err)
	}
}

func TestGraphConstructionErrors(t *testing.T) {
	g := New("errs")
	if err := g.Add(nil, nil); err == nil {
		t.Fatal("Add(nil spec) succeeded")
	}
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	if err := g.Add(spec("A", 20), flatTimes(10, 256)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate Add: got %v, want duplicate error", err)
	}
	if err := g.Add(spec("B", 20), nil); err == nil || !strings.Contains(err.Error(), "no per-size times") {
		t.Fatalf("Add without times: got %v", err)
	}
	if err := g.Connect(Edge{From: "A", To: "missing"}); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("edge to unknown node: got %v", err)
	}
	if err := g.Connect(Edge{From: "missing", To: "A"}); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("edge from unknown node: got %v", err)
	}
	if err := g.Connect(Edge{From: "A", To: "A"}); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop: got %v", err)
	}
	mustAdd(t, g, spec("B", 20), flatTimes(10, 256))
	if err := g.Connect(Edge{From: "A", To: "B", Calls: -1}); err == nil || !strings.Contains(err.Error(), "negative Calls") {
		t.Fatalf("negative calls: got %v", err)
	}
}

func TestValidateCycle(t *testing.T) {
	g := New("cycle")
	for _, n := range []string{"A", "B", "C"} {
		mustAdd(t, g, spec(n, 20), flatTimes(10, 256))
	}
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "B", To: "C"})
	mustConnect(t, g, Edge{From: "C", To: "A"})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate on cyclic graph: got %v, want cycle error", err)
	}
}

func TestValidateEmptyAndDuplicateEdge(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("Validate on empty graph succeeded")
	}
	g := New("dup")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	mustAdd(t, g, spec("B", 20), flatTimes(10, 256))
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "A", To: "B"})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("duplicate edge: got %v", err)
	}
}

func TestRates(t *testing.T) {
	g := New("rates")
	for _, n := range []string{"A", "B", "C", "D"} {
		mustAdd(t, g, spec(n, 20), flatTimes(10, 256))
	}
	// A fans out to B (3 calls) and C; both feed D.
	mustConnect(t, g, Edge{From: "A", To: "B", Calls: 3})
	mustConnect(t, g, Edge{From: "A", To: "C"})
	mustConnect(t, g, Edge{From: "B", To: "D"})
	mustConnect(t, g, Edge{From: "C", To: "D"})
	rates, err := g.rates()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 1, 4}
	for i, w := range want {
		if rates[i] != w {
			t.Errorf("rate[%s] = %v, want %v", g.names[i], rates[i], w)
		}
	}
}

func TestFusableChains(t *testing.T) {
	g := New("chains")
	for _, n := range []string{"A", "B", "C", "D", "E", "F"} {
		mustAdd(t, g, spec(n, 20), flatTimes(10, 256))
	}
	// A→B→C is a clean sync chain; C→D rides a stream (not fusable);
	// D fans out to E and F, so neither downstream edge is fusable.
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "B", To: "C"})
	mustConnect(t, g, Edge{From: "C", To: "D", Trigger: TriggerStream})
	mustConnect(t, g, Edge{From: "D", To: "E"})
	mustConnect(t, g, Edge{From: "D", To: "F"})
	chains := g.fusableChains()
	if len(chains) != 1 {
		t.Fatalf("chains = %v, want exactly one", chains)
	}
	if got := chains[0]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("chain = %v, want [0 1 2] (A→B→C)", got)
	}
}

func TestComposeTimeSingleAndInfeasible(t *testing.T) {
	res := platform.DefaultResourceModel()
	single := []Function{{Spec: spec("A", 20), Times: flatTimes(12, 256)}}
	if got, ok := composeTime(res, single, 256); !ok || got != 12 {
		t.Fatalf("singleton compose = %v/%v, want 12/true", got, ok)
	}
	if _, ok := composeTime(res, single, 512); ok {
		t.Fatal("singleton compose at unmeasured size should be infeasible")
	}
	// Two 50 MB working sets cannot share a 128 MB instance (~88 MB heap).
	pair := []Function{
		{Spec: spec("A", 50), Times: flatTimes(10, 128, 1024)},
		{Spec: spec("B", 50), Times: flatTimes(10, 128, 1024)},
	}
	if _, ok := composeTime(res, pair, 128); ok {
		t.Fatal("oversized fusion at 128MB should be infeasible")
	}
	got, ok := composeTime(res, pair, 1024)
	if !ok {
		t.Fatal("fusion at 1024MB should be feasible")
	}
	// At a roomy size the shared heap stays under the GC knee, so the
	// composed time is exactly the sum of the members'.
	if got != 20 {
		t.Fatalf("composed time at 1024MB = %v, want 20", got)
	}
}

func TestTriggerStrings(t *testing.T) {
	if TriggerSync.String() != "sync" || TriggerQueue.String() != "queue" || TriggerStream.String() != "stream" {
		t.Error("trigger String() mismatch")
	}
	if !TriggerSync.Fusable() || !TriggerQueue.Fusable() || TriggerStream.Fusable() {
		t.Error("trigger Fusable() mismatch")
	}
}

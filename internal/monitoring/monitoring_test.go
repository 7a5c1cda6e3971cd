package monitoring

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricRegistryComplete(t *testing.T) {
	if NumMetrics != 25 {
		t.Fatalf("Table 1 lists 25 metrics, registry has %d", NumMetrics)
	}
	seen := make(map[string]bool, NumMetrics)
	for _, id := range AllMetrics() {
		name := id.String()
		if name == "" {
			t.Errorf("metric %d has empty name", id)
		}
		if seen[name] {
			t.Errorf("duplicate metric name %q", name)
		}
		seen[name] = true
		if id.Source() == "unknown" || id.Source() == "" {
			t.Errorf("metric %v has no source", id)
		}
	}
}

func TestMetricByName(t *testing.T) {
	id, err := MetricByName("heapUsed")
	if err != nil {
		t.Fatal(err)
	}
	if id != HeapUsed {
		t.Errorf("MetricByName(heapUsed) = %v, want HeapUsed", id)
	}
	if _, err := MetricByName("nope"); err == nil {
		t.Error("unknown metric should error")
	}
	if got := MetricID(-1).String(); got != "metric(-1)" {
		t.Errorf("out-of-range String = %q", got)
	}
	if got := MetricID(99).Source(); got != "unknown" {
		t.Errorf("out-of-range Source = %q", got)
	}
}

func TestVectorOps(t *testing.T) {
	var a, b Vector
	a.Set(UserCPUTime, 10)
	b.Set(UserCPUTime, 5)
	b.Set(HeapUsed, 3)
	a.Add(&b)
	if a.Get(UserCPUTime) != 15 || a.Get(HeapUsed) != 3 {
		t.Errorf("Add failed: %v", a)
	}
	a.Scale(2)
	if a.Get(UserCPUTime) != 30 {
		t.Errorf("Scale failed: %v", a.Get(UserCPUTime))
	}
}

// fakeProbe simulates cumulative counters advancing between snapshots.
type fakeProbe struct {
	mu    sync.Mutex
	snaps []Snapshot
	idx   int
}

func (p *fakeProbe) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snaps[p.idx]
	if p.idx < len(p.snaps)-1 {
		p.idx++
	}
	return s
}

func TestMonitorRecordDiffsCounters(t *testing.T) {
	probe := &fakeProbe{snaps: []Snapshot{
		{UserCPU: 100 * time.Millisecond, BytesRecv: 1000, VolCtx: 5, HeapUsedMB: 12},
		{UserCPU: 180 * time.Millisecond, BytesRecv: 4000, VolCtx: 9, HeapUsedMB: 15},
	}}
	store := NewMemoryStore()
	m := &Monitor{FunctionID: "fn-1", Probe: probe, Store: store}

	inv, err := m.Record(0, false, func() (time.Duration, LagSample, error) {
		return 200 * time.Millisecond, LagSample{Min: 1, Max: 8, Mean: 3, Std: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inv.Metrics.Get(ExecutionTime); got != 200 {
		t.Errorf("executionTime = %v ms, want 200", got)
	}
	if got := inv.Metrics.Get(UserCPUTime); got != 80 {
		t.Errorf("userCPUTime = %v ms, want 80 (diff)", got)
	}
	if got := inv.Metrics.Get(BytesReceived); got != 3000 {
		t.Errorf("netByteRx = %v, want 3000 (diff)", got)
	}
	if got := inv.Metrics.Get(VolCtxSwitches); got != 4 {
		t.Errorf("volCtx = %v, want 4 (diff)", got)
	}
	// Gauges use the "after" snapshot, not a diff.
	if got := inv.Metrics.Get(HeapUsed); got != 15 {
		t.Errorf("heapUsed = %v, want 15 (gauge)", got)
	}
	if got := inv.Metrics.Get(MeanEventLoopLag); got != 3 {
		t.Errorf("elMeanLag = %v, want 3", got)
	}
	// Stored too.
	if got := store.Invocations("fn-1"); len(got) != 1 {
		t.Errorf("store has %d invocations, want 1", len(got))
	}
}

func TestMonitorRecordErrors(t *testing.T) {
	m := &Monitor{FunctionID: "fn", Probe: &fakeProbe{snaps: []Snapshot{{}}}}
	if _, err := m.Record(0, false, nil); !errors.Is(err, ErrNilHandler) {
		t.Errorf("nil handler: got %v, want ErrNilHandler", err)
	}
	handlerErr := errors.New("boom")
	_, err := m.Record(0, false, func() (time.Duration, LagSample, error) {
		return 0, LagSample{}, handlerErr
	})
	if !errors.Is(err, handlerErr) {
		t.Errorf("handler error not propagated: %v", err)
	}
}

func TestMemoryStoreConcurrent(t *testing.T) {
	store := NewMemoryStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := store.Append("fn", Invocation{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(store.Invocations("fn")); got != 800 {
		t.Errorf("store has %d invocations, want 800", got)
	}
	if fns := store.Functions(); len(fns) != 1 || fns[0] != "fn" {
		t.Errorf("Functions() = %v", fns)
	}
}

func TestSummarize(t *testing.T) {
	invs := make([]Invocation, 4)
	for i := range invs {
		invs[i].Metrics.Set(ExecutionTime, float64(100+i*10)) // 100,110,120,130
		invs[i].Metrics.Set(HeapUsed, 20)
	}
	invs[0].ColdStart = true

	s, err := Summarize(invs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.ColdStarts != 1 {
		t.Errorf("N=%d ColdStarts=%d", s.N, s.ColdStarts)
	}
	if got := s.Mean[ExecutionTime]; got != 115 {
		t.Errorf("mean exec = %v, want 115", got)
	}
	if got := s.Std[HeapUsed]; got != 0 {
		t.Errorf("constant metric std = %v, want 0", got)
	}
	if got := s.MeanExecutionTime(); got != 115*time.Millisecond {
		t.Errorf("MeanExecutionTime = %v", got)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty summarize error = %v", err)
	}
}

func TestMetricSamplesAndFilters(t *testing.T) {
	invs := []Invocation{
		{Start: 0, ColdStart: true},
		{Start: time.Second},
		{Start: 2 * time.Second},
	}
	for i := range invs {
		invs[i].Metrics.Set(ExecutionTime, float64(i))
	}
	samples := MetricSamples(invs, ExecutionTime)
	if len(samples) != 3 || samples[2] != 2 {
		t.Errorf("MetricSamples = %v", samples)
	}
	warm := FilterWarm(invs)
	if len(warm) != 2 {
		t.Errorf("FilterWarm kept %d, want 2", len(warm))
	}
	win := Window(invs, time.Second, 2*time.Second)
	if len(win) != 1 || win[0].Start != time.Second {
		t.Errorf("Window = %v", win)
	}
}

func TestValidateWindow(t *testing.T) {
	if err := ValidateWindow(nil); err != nil {
		t.Fatalf("empty window: %v", err)
	}
	edge := make([]Invocation, 3)
	edge[1].Metrics[HeapUsed] = 1e15
	edge[2].Metrics[BytesReceived] = -1e15
	if err := ValidateWindow(edge); err != nil {
		t.Fatalf("zero duration and ±1e15 metrics rejected: %v", err)
	}
	for name, c := range map[string]struct {
		inv  Invocation
		want string
	}{
		"nan":      {Invocation{Metrics: Vector{ExecutionTime: math.NaN()}}, "executionTime = NaN"},
		"+inf":     {Invocation{Metrics: Vector{FSReads: math.Inf(1)}}, "fsReads = +Inf"},
		"-inf":     {Invocation{Metrics: Vector{FSWrites: math.Inf(-1)}}, "fsWrites = -Inf"},
		"huge":     {Invocation{Metrics: Vector{HeapUsed: 1.0000001e15}}, "heapUsed = 1.0000001e+15"},
		"duration": {Invocation{Duration: -time.Nanosecond}, "negative duration -1ns"},
	} {
		invs := make([]Invocation, 4)
		invs[2] = c.inv
		err := ValidateWindow(invs)
		if err == nil || !strings.Contains(err.Error(), "invocation 2: "+c.want) {
			t.Errorf("%s: err = %v, want it to name invocation 2 and %q", name, err, c.want)
		}
	}
}

package monitoring

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Snapshot is the state a Probe exposes at a point in time: the cumulative
// counters the wrapper diffs across an invocation (mirroring
// process.cpuUsage(), process.resourceUsage() and /proc/net/dev, which only
// ever increase within an instance) and the instantaneous memory gauges.
type Snapshot struct {
	// Cumulative counters (diffed before/after the handler call).
	UserCPU   time.Duration
	SystemCPU time.Duration
	VolCtx    int64
	InvolCtx  int64
	FSReads   int64
	FSWrites  int64
	BytesRecv int64
	BytesSent int64
	PktsRecv  int64
	PktsSent  int64
	MaxRSSMB  float64 // high-water mark, monotone
	// Instantaneous gauges (read after the handler call).
	RSSMB           float64
	HeapTotalMB     float64
	HeapUsedMB      float64
	PhysicalHeapMB  float64
	AvailableHeapMB float64
	HeapLimitMB     float64
	MallocMemMB     float64
	ExternalMemMB   float64
	BytecodeMetaMB  float64
}

// LagSample is the event-loop lag statistic window perf_hooks reports for a
// single invocation, in milliseconds.
type LagSample struct {
	Min, Max, Mean, Std float64
}

// Probe exposes the runtime's counters to the monitor — the role
// process/v8/proc-net play for the paper's Node.js wrapper.
type Probe interface {
	Snapshot() Snapshot
}

// Invocation is one monitored execution: the wall-clock duration of the
// inner function (the wrapper's own overhead is excluded, §3.2), the metric
// vector, and bookkeeping used by the harness.
type Invocation struct {
	// Start is the virtual time at which the invocation began.
	Start time.Duration
	// Duration is the inner-handler execution time.
	Duration time.Duration
	// ColdStart marks invocations that paid an instance cold start.
	ColdStart bool
	// Metrics is the diffed Table-1 metric vector.
	Metrics Vector
}

// maxMetricMagnitude bounds every admitted metric value. It sits far above
// any real measurement (1e15 bytes is a petabyte; 1e15 ms is 30,000
// years) and far enough below the float64 range that the squared
// deviations Summarize and the Welford accumulator sum cannot overflow.
const maxMetricMagnitude = 1e15

// ValidateWindow checks a monitoring window before it may reach fleet
// state: every metric must be finite with magnitude at most 1e15, and
// every Duration must be non-negative. The error names the first
// offending invocation by its index in invs. A window that fails here
// would otherwise poison every summary computed over it.
func ValidateWindow(invs []Invocation) error {
	for i := range invs {
		inv := &invs[i]
		if inv.Duration < 0 {
			return fmt.Errorf("monitoring: invocation %d: negative duration %v", i, inv.Duration)
		}
		for id := range inv.Metrics {
			// The negated comparison also rejects NaN.
			if v := inv.Metrics[id]; !(math.Abs(v) <= maxMetricMagnitude) {
				return fmt.Errorf("monitoring: invocation %d: %s = %v is not finite or exceeds ±%g",
					i, MetricID(id), v, maxMetricMagnitude)
			}
		}
	}
	return nil
}

// Store receives monitored invocations. The paper writes them to a
// DynamoDB table after metric collection completes so the write does not
// perturb the measured values; implementations here follow the same rule by
// being invoked strictly after the vector is assembled.
type Store interface {
	Append(functionID string, inv Invocation) error
}

// MemoryStore is an in-memory Store, safe for concurrent use.
type MemoryStore struct {
	mu   sync.Mutex
	data map[string][]Invocation
}

// NewMemoryStore returns an empty MemoryStore.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{data: make(map[string][]Invocation)}
}

// Append implements Store.
func (s *MemoryStore) Append(functionID string, inv Invocation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[functionID] = append(s.data[functionID], inv)
	return nil
}

// Invocations returns a copy of the recorded invocations for a function.
func (s *MemoryStore) Invocations(functionID string) []Invocation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Invocation(nil), s.data[functionID]...)
}

// Functions returns the IDs with at least one recorded invocation.
func (s *MemoryStore) Functions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.data))
	for id := range s.data {
		ids = append(ids, id)
	}
	return ids
}

var _ Store = (*MemoryStore)(nil)

// ErrNilHandler is returned when the monitor wraps a nil handler.
var ErrNilHandler = errors.New("monitoring: nil handler")

// Handler is the inner function the wrapper invokes: it runs the actual
// workload and reports its wall-clock duration plus the event-loop lag
// window observed while it ran.
type Handler func() (elapsed time.Duration, lag LagSample, err error)

// Monitor is the wrapper-style resource-consumption monitor of §3.2. It
// implements the Lambda entry point: snapshot counters, call the wrapped
// handler, snapshot again, diff, and persist the vector.
type Monitor struct {
	FunctionID string
	Probe      Probe
	Store      Store
}

// Record executes one monitored invocation starting at virtual time start.
// The returned vector is also appended to the store (when one is set).
func (m *Monitor) Record(start time.Duration, coldStart bool, handler Handler) (Invocation, error) {
	if handler == nil {
		return Invocation{}, ErrNilHandler
	}
	before := m.Probe.Snapshot()
	elapsed, lag, err := handler()
	if err != nil {
		return Invocation{}, err
	}
	after := m.Probe.Snapshot()

	inv := Invocation{
		Start:     start,
		Duration:  elapsed,
		ColdStart: coldStart,
		Metrics:   Diff(before, after, elapsed, lag),
	}
	// Persisting happens after the vector is assembled — the store write
	// cannot perturb the metrics (paper §3.2).
	if m.Store != nil {
		if err := m.Store.Append(m.FunctionID, inv); err != nil {
			return Invocation{}, err
		}
	}
	return inv, nil
}

// Diff assembles a Table-1 metric vector from before/after snapshots, the
// measured duration, and the lag window.
func Diff(before, after Snapshot, elapsed time.Duration, lag LagSample) Vector {
	var v Vector
	v[ExecutionTime] = float64(elapsed) / float64(time.Millisecond)
	v[UserCPUTime] = float64(after.UserCPU-before.UserCPU) / float64(time.Millisecond)
	v[SystemCPUTime] = float64(after.SystemCPU-before.SystemCPU) / float64(time.Millisecond)
	v[VolCtxSwitches] = float64(after.VolCtx - before.VolCtx)
	v[InvolCtxSwitches] = float64(after.InvolCtx - before.InvolCtx)
	v[FSReads] = float64(after.FSReads - before.FSReads)
	v[FSWrites] = float64(after.FSWrites - before.FSWrites)
	v[ResidentSetSize] = after.RSSMB
	v[MaxResidentSet] = after.MaxRSSMB
	v[TotalHeap] = after.HeapTotalMB
	v[HeapUsed] = after.HeapUsedMB
	v[PhysicalHeap] = after.PhysicalHeapMB
	v[AvailableHeap] = after.AvailableHeapMB
	v[HeapLimit] = after.HeapLimitMB
	v[MallocMem] = after.MallocMemMB
	v[ExternalMem] = after.ExternalMemMB
	v[BytecodeMetadata] = after.BytecodeMetaMB
	v[BytesReceived] = float64(after.BytesRecv - before.BytesRecv)
	v[BytesTransmitted] = float64(after.BytesSent - before.BytesSent)
	v[PackagesReceived] = float64(after.PktsRecv - before.PktsRecv)
	v[PackagesTransmitted] = float64(after.PktsSent - before.PktsSent)
	v[MinEventLoopLag] = lag.Min
	v[MaxEventLoopLag] = lag.Max
	v[MeanEventLoopLag] = lag.Mean
	v[StdEventLoopLag] = lag.Std
	return v
}

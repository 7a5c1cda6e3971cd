// Package monitoring implements the resource-consumption monitoring of
// paper §3.2: the 25 metrics of Table 1, a wrapper-style monitor that
// snapshots cumulative counters before and after each invocation, and the
// aggregation of per-invocation samples into the per-metric summaries
// (mean, standard deviation, coefficient of variation) consumed by the
// multi-target regression model.
package monitoring

import "fmt"

// MetricID identifies one of the Table-1 metrics. IDs are dense and stable;
// they index Vector.
type MetricID int

// The 25 metrics of paper Table 1, in table order.
const (
	ExecutionTime       MetricID = iota // process.hrtime()
	UserCPUTime                         // process.cpuUsage()
	SystemCPUTime                       // process.cpuUsage()
	VolCtxSwitches                      // process.resourceUsage()
	InvolCtxSwitches                    // process.resourceUsage()
	FSReads                             // process.resourceUsage()
	FSWrites                            // process.resourceUsage()
	ResidentSetSize                     // process.memoryUsage()
	MaxResidentSet                      // process.resourceUsage()
	TotalHeap                           // process.memoryUsage()
	HeapUsed                            // process.memoryUsage()
	PhysicalHeap                        // v8.getHeapStatistics()
	AvailableHeap                       // v8.getHeapStatistics()
	HeapLimit                           // v8.getHeapStatistics()
	MallocMem                           // v8.getHeapStatistics() ("allocated memory")
	ExternalMem                         // process.memoryUsage()
	BytecodeMetadata                    // v8.getHeapCodeStatistics()
	BytesReceived                       // /proc/net/dev
	BytesTransmitted                    // /proc/net/dev
	PackagesReceived                    // /proc/net/dev
	PackagesTransmitted                 // /proc/net/dev
	MinEventLoopLag                     // perf_hooks
	MaxEventLoopLag                     // perf_hooks
	MeanEventLoopLag                    // perf_hooks
	StdEventLoopLag                     // perf_hooks

	// NumMetrics is the number of Table-1 metrics.
	NumMetrics int = iota
)

var metricNames = [NumMetrics]string{
	ExecutionTime:       "executionTime",
	UserCPUTime:         "userCPUTime",
	SystemCPUTime:       "systemCPUTime",
	VolCtxSwitches:      "volContextSwitches",
	InvolCtxSwitches:    "involContextSwitches",
	FSReads:             "fsReads",
	FSWrites:            "fsWrites",
	ResidentSetSize:     "rss",
	MaxResidentSet:      "maxRss",
	TotalHeap:           "heapTotal",
	HeapUsed:            "heapUsed",
	PhysicalHeap:        "physicalHeap",
	AvailableHeap:       "availableHeap",
	HeapLimit:           "heapLimit",
	MallocMem:           "mallocMem",
	ExternalMem:         "externalMem",
	BytecodeMetadata:    "bytecodeMetadata",
	BytesReceived:       "netByteRx",
	BytesTransmitted:    "netByteTx",
	PackagesReceived:    "netPackageRx",
	PackagesTransmitted: "netPackageTx",
	MinEventLoopLag:     "elMinLag",
	MaxEventLoopLag:     "elMaxLag",
	MeanEventLoopLag:    "elMeanLag",
	StdEventLoopLag:     "elStdLag",
}

// String returns the canonical short name of the metric.
func (m MetricID) String() string {
	if m < 0 || int(m) >= NumMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// AllMetrics returns all metric IDs in Table-1 order.
func AllMetrics() []MetricID {
	ids := make([]MetricID, NumMetrics)
	for i := range ids {
		ids[i] = MetricID(i)
	}
	return ids
}

// MetricByName resolves a short name back to its ID.
func MetricByName(name string) (MetricID, error) {
	for i, n := range metricNames {
		if n == name {
			return MetricID(i), nil
		}
	}
	return 0, fmt.Errorf("monitoring: unknown metric %q", name)
}

// Vector holds one invocation's value for every Table-1 metric, indexed by
// MetricID. Time-valued metrics are in milliseconds, byte-valued metrics in
// bytes, memory gauges in MB, counters in counts.
type Vector [NumMetrics]float64

// Add accumulates other into v element-wise.
func (v *Vector) Add(other *Vector) {
	for i := range v {
		v[i] += other[i]
	}
}

// Scale multiplies every element by f.
func (v *Vector) Scale(f float64) {
	for i := range v {
		v[i] *= f
	}
}

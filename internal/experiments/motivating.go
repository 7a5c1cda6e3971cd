package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sizeless/internal/harness"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
)

// MotivatingFunctions returns the four §2 example functions (Fig. 1):
// InvertMatrix and PrimeNumbers (CPU-bound), DynamoDB (service-bound with a
// scalable transfer share), and API-Call (external-latency-bound).
func MotivatingFunctions() []*workload.Spec {
	return []*workload.Spec{
		{
			Name: "InvertMatrix",
			Ops: []workload.Op{
				workload.CPUOp{Label: "invertMatrix", WorkMs: 600, Parallelism: 1, TransientAllocMB: 40},
			},
			BaseHeapMB: 25, CodeMB: 2, PayloadKB: 1, ResponseKB: 1, NoiseCoV: 0.08,
		},
		{
			Name: "PrimeNumbers",
			Ops: []workload.Op{
				workload.CPUOp{Label: "primeNumbers", WorkMs: 2200, Parallelism: 1, TransientAllocMB: 2},
			},
			BaseHeapMB: 20, CodeMB: 1.8, PayloadKB: 1, ResponseKB: 1, NoiseCoV: 0.08,
		},
		{
			Name: "DynamoDB",
			Ops: []workload.Op{
				workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 4, RequestKB: 1, ResponseKB: 24},
				workload.CPUOp{Label: "mergeResults", WorkMs: 6, Parallelism: 1, TransientAllocMB: 4},
			},
			BaseHeapMB: 28, CodeMB: 3, PayloadKB: 2, ResponseKB: 8, NoiseCoV: 0.12,
		},
		{
			Name: "API-Call",
			Ops: []workload.Op{
				workload.ServiceOp{Service: services.ExternalAPI, Op: "GET", Calls: 1, RequestKB: 1, ResponseKB: 8},
				workload.CPUOp{Label: "parseResponse", WorkMs: 2, Parallelism: 1, TransientAllocMB: 1},
			},
			BaseHeapMB: 24, CodeMB: 2, PayloadKB: 1, ResponseKB: 2, NoiseCoV: 0.12,
		},
	}
}

// MotivatingPoint is one (function, size) measurement of Fig. 1.
type MotivatingPoint struct {
	ExecTimeMs float64
	CostCents  float64
}

// MotivatingResult is the Fig. 1 reproduction.
type MotivatingResult struct {
	Sizes []platform.MemorySize
	// Points maps function name → size → measurement.
	Points map[string]map[platform.MemorySize]MotivatingPoint
}

// MotivatingExample measures the four §2 functions across all sizes.
// Cancelling ctx stops the sweep at the next experiment boundary.
func MotivatingExample(ctx context.Context, lab *Lab) (*MotivatingResult, error) {
	pricing := lab.Pricing()
	ds, err := harness.BuildDataset(ctx, lab.harnessOpts(), MotivatingFunctions())
	if err != nil {
		return nil, fmt.Errorf("experiments: fig1: %w", err)
	}
	res := &MotivatingResult{
		Sizes:  ds.Sizes,
		Points: make(map[string]map[platform.MemorySize]MotivatingPoint, len(ds.Rows)),
	}
	for _, row := range ds.Rows {
		per := make(map[platform.MemorySize]MotivatingPoint, len(ds.Sizes))
		for m, mean := range row.ExecTimes() {
			per[m] = MotivatingPoint{
				ExecTimeMs: mean,
				CostCents:  pricing.Cost(m, time.Duration(mean*float64(time.Millisecond))) * 100,
			}
		}
		res.Points[row.FunctionID] = per
	}
	return res, nil
}

// Render prints Fig. 1 as one table per function.
func (r *MotivatingResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1 — mean execution time and cost per memory size\n\n")
	for _, spec := range MotivatingFunctions() {
		name := spec.Name
		per := r.Points[name]
		t := newTable("memory", "exec time", "cost [ct]")
		for _, m := range r.Sizes {
			p := per[m]
			t.addRow(m.String(), ms(p.ExecTimeMs), fmt.Sprintf("%.6f", p.CostCents))
		}
		fmt.Fprintf(&b, "%s\n%s\n", name, t)
	}
	return b.String()
}

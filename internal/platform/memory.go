// Package platform models the resource-allocation and pricing behaviour of
// Function-as-a-Service platforms (paper §2), generalized behind a
// pluggable Provider abstraction.
//
// The single user-facing resource knob is the memory size; CPU share,
// network bandwidth, and file-I/O bandwidth all scale with it, and billing
// follows the provider's scheme. A Provider bundles the four
// platform-specific pieces — the deployable memory Grid, the Pricer, the
// ResourceModel, and the cold-start/lifecycle Config — and registers under
// a name (RegisterProvider / LookupProvider). Three providers ship built
// in:
//
//   - aws-lambda (the default, calibrated to the paper's 2020/2021
//     measurements): 128–3008 MB in 64 MB steps, memory/1792 MB of vCPU
//     capped at the worker's cores (Wang et al., ATC'18 [49]), linear
//     GB-second pricing with configurable rounding (100 ms historically,
//     1 ms after December 2020).
//   - gcp-cloudfunctions (gen1): six discrete memory tiers each bundled
//     with a fixed CPU clock, per-tier bundled pricing, 100 ms billing
//     granularity.
//   - azure-functions (consumption plan): 128 MB-stepped grid capped at
//     1536 MB, GB-second pricing with a 100 ms minimum charge, single-core
//     CPU ceiling.
package platform

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// MemorySize is a Lambda memory configuration in MB.
type MemorySize int

// The six memory sizes used throughout the paper (§3.3): the smallest and
// largest sizes available on AWS at the time plus four intermediates.
const (
	Mem128  MemorySize = 128
	Mem256  MemorySize = 256
	Mem512  MemorySize = 512
	Mem1024 MemorySize = 1024
	Mem2048 MemorySize = 2048
	Mem3008 MemorySize = 3008
)

// StandardSizes returns the paper's six memory sizes in ascending order.
// The returned slice is a fresh copy; callers may modify it.
func StandardSizes() []MemorySize {
	return []MemorySize{Mem128, Mem256, Mem512, Mem1024, Mem2048, Mem3008}
}

// AllSizes64MB returns every size AWS supported at the time: 128 MB to
// 3008 MB in 64 MB increments (46 sizes). Used by the §5 interpolation
// ablation.
func AllSizes64MB() []MemorySize {
	sizes := make([]MemorySize, 0, 46)
	for m := 128; m <= 3008; m += 64 {
		sizes = append(sizes, MemorySize(m))
	}
	return sizes
}

// GB returns the size expressed in gigabytes.
func (m MemorySize) GB() float64 { return float64(m) / 1024 }

// String implements fmt.Stringer.
func (m MemorySize) String() string { return fmt.Sprintf("%dMB", int(m)) }

// parseMemoryValue parses "512" or "512MB" into a size without any grid
// validation. The whole string must be consumed: trailing garbage after
// the number or unit ("512MBx", "5 12") is rejected rather than silently
// truncated (fuzzed by FuzzParseMemorySize and FuzzGridParse).
func parseMemoryValue(s string) (MemorySize, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "MB")
	t = strings.TrimSpace(t)
	v, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("platform: cannot parse memory size %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("platform: non-positive memory size %d", v)
	}
	return MemorySize(v), nil
}

// Nearest returns the size in candidates closest to m, preferring the
// smaller size on ties. It returns 0 if candidates is empty.
func Nearest(m MemorySize, candidates []MemorySize) MemorySize {
	if len(candidates) == 0 {
		return 0
	}
	sorted := append([]MemorySize(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	best := sorted[0]
	bestDist := abs(int(m) - int(best))
	for _, c := range sorted[1:] {
		if d := abs(int(m) - int(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

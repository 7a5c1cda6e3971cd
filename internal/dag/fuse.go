package dag

import "sizeless/internal/platform"

// fusedHeapHeadroom caps how much of the available heap a fused unit's
// combined working set may occupy before a size is ruled infeasible: past
// this point the GC-pressure curve is so steep that the composed time model
// stops being trustworthy (the real runtime would thrash or OOM).
const fusedHeapHeadroom = 0.90

// fusedHeapMB is the resident working set of a fused unit: every member's
// base heap stays live in the shared instance.
func fusedHeapMB(members []Function) float64 {
	total := 0.0
	for _, m := range members {
		total += m.Spec.BaseHeapMB
	}
	return total
}

// composeTime models the execution time of a fused unit at size m: members
// run sequentially, each inflated by the extra GC pressure the shared heap
// adds over what the member's own (predicted/measured) time already
// includes. For a single member this is exactly its own time.
//
// The second return is false when the size is infeasible for the group —
// some member has no time at m, or the combined working set exceeds the
// heap headroom.
func composeTime(res platform.ResourceModel, members []Function, m platform.MemorySize) (float64, bool) {
	if len(members) == 1 {
		t, ok := members[0].Times[m]
		return t, ok && t > 0
	}
	heap := fusedHeapMB(members)
	if heap >= fusedHeapHeadroom*res.AvailableHeapMB(m) {
		return 0, false
	}
	shared := res.GCSlowdown(m, heap)
	total := 0.0
	for _, mem := range members {
		t, ok := mem.Times[m]
		if !ok || t <= 0 {
			return 0, false
		}
		own := res.GCSlowdown(m, mem.Spec.BaseHeapMB)
		total += t * shared / own
	}
	return total, true
}

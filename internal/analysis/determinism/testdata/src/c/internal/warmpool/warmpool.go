// Package warmpool sits in a numeric-scoped path (segment
// internal/warmpool): the warm-instance lifecycle decides which
// invocations start cold, and the golden tests pin the simulators' float
// outputs built on it, so the map-order rule applies.
package warmpool

import "time"

// IdleTotal sums idle time across instances in map-iteration order.
func IdleTotal(idleSince map[int]time.Duration, t time.Duration) float64 {
	var total float64
	for _, u := range idleSince {
		total += (t - u).Seconds() // want `float accumulation into total in map-iteration order`
	}
	return total
}

// StartOrder rebuilds the pool's scan order from a map range — the LIFO
// tie-break (earliest-started wins) would change between runs.
func StartOrder(idleSince map[int]time.Duration) []int {
	var ids []int
	for id := range idleSince {
		ids = append(ids, id) // want `append to ids in map-iteration order`
	}
	return ids
}

// Oldest is the sanctioned pattern: the pool keeps its instances in a
// slice in start order and scans it.
func Oldest(order []int, idleSince map[int]time.Duration) int {
	best := -1
	for _, id := range order {
		if best < 0 || idleSince[id] < idleSince[best] {
			best = id
		}
	}
	return best
}

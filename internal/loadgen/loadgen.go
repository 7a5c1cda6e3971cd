// Package loadgen generates open-loop request arrival schedules in virtual
// time — the role Vegeta plays in the paper's measurement harness (§3.3).
// The dataset-generation workload is "30 requests per second with an
// exponentially distributed inter-arrival time", i.e. a Poisson process.
//
// Beyond the stationary generators (Poisson, Constant, Burst), the package
// is a temporal scenario engine: a composable Profile spec (constant,
// ramp, diurnal sinusoid, spikes, superposition, scaling — see profile.go)
// sampled as a non-homogeneous Poisson process via thinning, plus
// recorded-trace replay through ParseTrace (trace.go). All sampling is
// deterministic per xrand seed: identical seeds yield bit-identical
// schedules.
package loadgen

import (
	"errors"
	"slices"
	"time"

	"sizeless/internal/xrand"
)

// Schedule is an ascending sequence of arrival offsets from experiment
// start.
type Schedule []time.Duration

// ErrBadRate is returned for non-positive rates or durations.
var ErrBadRate = errors.New("loadgen: rate and duration must be positive")

// Poisson returns an open-loop schedule with exponentially distributed
// inter-arrival times at the given rate (requests/second) over the given
// experiment duration.
func Poisson(rate float64, duration time.Duration, rng *xrand.Stream) (Schedule, error) {
	if rate <= 0 || duration <= 0 {
		return nil, ErrBadRate
	}
	meanGap := float64(time.Second) / rate
	sched := make(Schedule, 0, int(float64(duration)/meanGap)+16)
	t := time.Duration(rng.Exponential(meanGap))
	for t < duration {
		sched = append(sched, t)
		t += time.Duration(rng.Exponential(meanGap))
	}
	return sched, nil
}

// Constant returns a deterministic constant-rate schedule (Vegeta's default
// pacing). It is a test fixture for tests that need exact arrival counts.
//
//lint:ignore deadexport test fixture shared by the lambda and fleetsynth tests
func Constant(rate float64, duration time.Duration) (Schedule, error) {
	if rate <= 0 || duration <= 0 {
		return nil, ErrBadRate
	}
	gap := time.Duration(float64(time.Second) / rate)
	sched := make(Schedule, 0, int(duration/gap)+1)
	for t := time.Duration(0); t < duration; t += gap {
		sched = append(sched, t)
	}
	return sched, nil
}

// Burst prepends `size` simultaneous arrivals at time zero to a schedule —
// the cold-start-storm scenario. It is a test fixture for failure-injection
// tests.
//
//lint:ignore deadexport test fixture shared by the lambda and fleetsynth tests
func Burst(size int, rest Schedule) Schedule {
	out := make(Schedule, 0, size+len(rest))
	for i := 0; i < size; i++ {
		out = append(out, 0)
	}
	return append(out, rest...)
}

// RateOver returns the average request rate of the schedule over an
// explicit horizon d — arrivals divided by duration — which is well-defined
// for bursty, sparse, and single-arrival schedules. It returns 0 for a
// non-positive horizon.
func (s Schedule) RateOver(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(len(s)) / d.Seconds()
}

// Sorted returns a time-ordered copy of the schedule, leaving s as it is —
// the one arrival order every replay through a warm pool walks.
func (s Schedule) Sorted() Schedule {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

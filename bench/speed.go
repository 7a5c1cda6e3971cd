package main

import (
	"context"
	"fmt"
	"math"
	"time"
)

// The benchmark runs on shared machines whose cores change speed from one
// second to the next: another tenant busy on the same physical core slows
// every instruction by up to 1.7×, and how busy the neighbours are drifts
// over minutes. Every timing moves with it, so ten runs of the same code
// spread wider than any useful bound. While a workload runs, a probe times
// a fixed kernel every probeEvery. Each end-to-end timing is then reported
// at the reference speed, at which the kernel takes refProbeUS, using the
// probe samples taken while that timing was measured.
//
// The kernel shares no code or data with the program under test, and its
// data stays in the core's private L1 cache, which a warm-up pass fills
// before the timed pass. What the program left in the caches therefore
// does not move it, nor does its load on the other core, since the two
// cores do not slow each other (bench/README.md): it moves only with the
// host. The wall-clock values are kept as the per-layer wall.* metrics.
const (
	probeEvery = 50 * time.Millisecond
	// refProbeUS fixes the reference speed. On the reference machine the
	// kernel takes about 115 µs with quiet neighbours and about 180 µs
	// with busy ones (bench/README.md).
	refProbeUS = 150.0
)

// Probe kernel inputs: 17 KiB in all, well inside a 48 KiB L1 data cache.
var (
	probeA, probeB [32 * 32]float64
	probeTable     [256]uint32
	probeSink      float64
)

func init() {
	for i := range probeA {
		probeA[i] = float64(i%7) * 0.01
		probeB[i] = float64(i%5) * 0.02
	}
	for i := range probeTable {
		probeTable[i] = uint32(i) * 2654435761
	}
}

// probeKernel does a fixed amount of floating-point and branchy integer
// work on the probe inputs.
func probeKernel() {
	var s float64
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			var acc float64
			for k := 0; k < 32; k++ {
				acc += probeA[i*32+k] * probeB[j*32+k]
			}
			s += acc
		}
	}
	x, n := uint32(2463534242), uint32(0)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if x&3 == 0 {
			n += probeTable[x&255]
		} else if x&4 == 0 {
			n ^= x
		}
	}
	probeSink += s + float64(n)
}

// probeOnce runs the kernel untimed, to bring its inputs into L1, then
// times it.
func probeOnce() time.Duration {
	probeKernel()
	t0 := time.Now()
	probeKernel()
	return time.Since(t0)
}

// hostProbe samples the kernel on its own goroutine until finish.
type hostProbe struct {
	stop, done chan struct{}
	at         []time.Time
	us         []float64
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			d := probeOnce()
			p.at = append(p.at, time.Now())
			p.us = append(p.us, us(d))
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the probe and waits for its goroutine.
func (p *hostProbe) finish() {
	close(p.stop)
	<-p.done
}

// over returns the median kernel time in µs of the samples taken within
// w, or of all samples when w holds none.
func (p *hostProbe) over(w interval) float64 {
	var in []float64
	for i, t := range p.at {
		if !t.Before(w.from) && !t.After(w.to) {
			in = append(in, p.us[i])
		}
	}
	if len(in) == 0 {
		return median(p.us)
	}
	return median(in)
}

// measure runs one workload beside the probe and reports its end-to-end
// timings at the reference speed.
func measure(ctx context.Context, w workload, cfg config) (*outcome, error) {
	p := startProbe()
	out, err := w.run(ctx, cfg)
	p.finish()
	if err != nil {
		return nil, err
	}
	if err := out.atReferenceSpeed(p); err != nil {
		return nil, err
	}
	return out, nil
}

// hostScaled says how each timed end-to-end metric moves with the host's
// speed: 1 for a duration, -1 for a rate.
var hostScaled = map[string]int{"setup_s": 1, "latency_p50_ms": 1, "throughput_per_s": -1}

// atReferenceSpeed keeps each timed end-to-end metric's wall-clock value
// as wall.<name> and replaces it by its value at the reference speed: a
// duration multiplied by refProbeUS over the probe's median during the
// metric's interval, a rate divided by it.
func (o *outcome) atReferenceSpeed(p *hostProbe) error {
	for _, d := range endToEnd {
		e, ok := hostScaled[d.name]
		if !ok {
			continue
		}
		w, ok := o.windows[d.name]
		if !ok {
			return fmt.Errorf("metric %s has no measurement interval", d.name)
		}
		probe := p.over(w)
		wall := o.e2e[d.name]
		o.layers["wall."+d.name] = wall
		o.e2e[d.name] = wall * math.Pow(refProbeUS/probe, float64(e))
		o.notef("%s: wall clock %.4f %s; probe kernel %.1f µs over %v (reference %.0f µs)", d.name, wall, d.unit, probe, w.to.Sub(w.from).Round(time.Millisecond), refProbeUS)
	}
	o.layers["host.probe_us"] = median(p.us)
	return nil
}

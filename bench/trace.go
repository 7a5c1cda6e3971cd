package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request, window or
// pipeline pass share a Trace id; Parent is 0 for a root span.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   int64  `json:"trace"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and reads no clock.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef names a recorded or open span as the parent of another.
type spanRef struct{ id, trace int64 }

// active is a span that has begun and not yet ended.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span. A zero parent starts a new trace.
func (t *tracer) begin(name string, parent spanRef) active {
	if t == nil {
		return active{}
	}
	s := t.newSpan(name, parent)
	return active{t: t, s: s, start: time.Now()}
}

func (t *tracer) newSpan(name string, parent spanRef) span {
	id := t.ids.Add(1)
	tr := parent.trace
	if tr == 0 {
		tr = id
	}
	return span{Name: name, ID: id, Parent: parent.id, Trace: tr}
}

func (a active) ref() spanRef { return spanRef{a.s.ID, a.s.Trace} }

// end closes the span and records it.
func (a active) end() {
	if a.t != nil {
		a.t.record(a.s, a.start, time.Now())
	}
}

// add records a span whose start and end were observed elsewhere, such as
// a commit wait that begins at a response and ends when a poll sees it.
func (t *tracer) add(name string, parent spanRef, start, end time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	s := t.newSpan(name, parent)
	t.record(s, start, end)
	return spanRef{s.ID, s.Trace}
}

func (t *tracer) record(s span, start, end time.Time) {
	s.StartNS = start.Sub(t.t0).Nanoseconds()
	s.EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span's id to its self time: its duration minus the
// union of its children's intervals, clipped to the span. Overlapping
// children, such as concurrent workers, are counted once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	for i, v := range ivs {
		if i == 0 || v.lo > reach {
			total += v.hi - v.lo
			reach = v.hi
		} else if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	MeanUS     float64 `json:"mean_us"`
	MeanSelfUS float64 `json:"mean_self_us"`
	P50SelfUS  float64 `json:"p50_self_us"`
}

// layerTable aggregates spans per name, sorted by name.
func layerTable(spans []span) []layerStat {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	out := make([]layerStat, 0, len(durs))
	for name, d := range durs {
		out = append(out, layerStat{
			Name:       name,
			Count:      len(d),
			MeanUS:     mean(d),
			MeanSelfUS: mean(selfs[name]),
			P50SelfUS:  median(selfs[name]),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerIndex keys a layer table by span name.
func layerIndex(table []layerStat) map[string]layerStat {
	m := make(map[string]layerStat, len(table))
	for _, l := range table {
		m[l.Name] = l
	}
	return m
}

func printLayerTable(w io.Writer, table []layerStat) {
	fmt.Fprintf(w, "%-32s %8s %12s %12s %12s\n", "layer", "count", "mean_us", "mean_self_us", "p50_self_us")
	for _, l := range table {
		fmt.Fprintf(w, "%-32s %8d %12.1f %12.1f %12.1f\n", l.Name, l.Count, l.MeanUS, l.MeanSelfUS, l.P50SelfUS)
	}
}

// writeTrace writes the spans and their layer table as one JSON document.
func writeTrace(path string, spans []span, table []layerStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	err = json.NewEncoder(f).Encode(struct {
		Spans  []span      `json:"spans"`
		Layers []layerStat `json:"layers"`
	}{spans, table})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}

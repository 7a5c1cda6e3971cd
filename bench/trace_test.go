package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	// ├── a [10,40]       a's child c [15,20]
	// ├── b [30,60]       overlaps a: the union [10,60] counts once
	// └── d [90,120]      runs past root: only [90,100] is root's
	spans := []span{
		{Name: "root", ID: 1, Trace: 1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 2, Parent: 1, Trace: 1, StartNS: 10, EndNS: 40},
		{Name: "b", ID: 3, Parent: 1, Trace: 1, StartNS: 30, EndNS: 60},
		{Name: "c", ID: 4, Parent: 2, Trace: 1, StartNS: 15, EndNS: 20},
		{Name: "d", ID: 5, Parent: 1, Trace: 1, StartNS: 90, EndNS: 120},
		{Name: "e", ID: 6, Trace: 6, StartNS: 200, EndNS: 210},
	}
	want := map[int64]int64{
		1: 100 - 50 - 10,
		2: 30 - 5,
		3: 30,
		4: 5,
		5: 30,
		6: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}

	table := layerIndex(layerTable(spans))
	if l := table["root"]; l.Count != 1 || l.MeanUS != 0.1 || l.MeanSelfUS != 0.04 {
		t.Errorf("root layer: %+v", l)
	}
}

func TestTracerRecordsParentsAndTraces(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", spanRef{})
	child := tr.begin("child", root.ref())
	child.end()
	wait := tr.add("wait", root.ref(), time.Now(), time.Now().Add(time.Millisecond))
	tr.add("after-wait", wait, time.Now(), time.Now())
	root.end()
	other := tr.begin("other", spanRef{})
	other.end()

	spans := tr.snapshot()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r := byName["root"]
	if r.Parent != 0 || r.Trace != r.ID {
		t.Errorf("root span %+v", r)
	}
	for _, name := range []string{"child", "wait"} {
		if s := byName[name]; s.Parent != r.ID || s.Trace != r.Trace {
			t.Errorf("%s span %+v is not root's child", name, s)
		}
	}
	if s := byName["after-wait"]; s.Parent != byName["wait"].ID || s.Trace != r.Trace {
		t.Errorf("after-wait span %+v is not wait's child", s)
	}
	if o := byName["other"]; o.Trace == r.Trace {
		t.Errorf("a second root shares trace %d", o.Trace)
	}

	var off *tracer
	a := off.begin("x", spanRef{})
	a.end()
	off.add("y", spanRef{}, time.Now(), time.Now())
	if off.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

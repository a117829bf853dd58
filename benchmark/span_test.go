package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 10, Parent: -1},  // 0: children cover [1,4] and [6,9] -> self 4
		{Name: "a", Start: 1, End: 4, Parent: 0},       // 1: child covers [2,3] -> self 2
		{Name: "a.inner", Start: 2, End: 3, Parent: 1}, // 2: leaf -> self 1
		{Name: "b", Start: 6, End: 8, Parent: 0},       // 3: sibling of 4, overlapping it
		{Name: "c", Start: 7, End: 9, Parent: 0},       // 4: b and c together cover [6,9] once
		{Name: "other root", Start: 20, End: 21, Parent: -1},
		{Name: "spills past its parent", Start: 20.5, End: 30, Parent: 5}, // clipped to [20.5,21]
	}
	want := []float64{4, 2, 1, 2, 2, 0.5, 9.5}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerParentsAndReps(t *testing.T) {
	tr := newTracer()
	tr.SetRep(3)
	root := tr.Start("root", -1)
	tr.Time("child", root, func() {})
	tr.Time("child", root, func() {})
	tr.End(root)
	tr.SetRep(4)
	tr.Time("child", -1, func() {})

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	for _, s := range spans[1:3] {
		if s.Parent != root || s.Rep != 3 || s.End < s.Start {
			t.Errorf("child span %+v: want parent %d, rep 3, end >= start", s, root)
		}
	}
	if total, each := sumSpans(spans, "child", 3); len(each) != 2 || total != each[0]+each[1] {
		t.Errorf("sumSpans(child, rep 3) = %v over %v, want the two children of rep 3", total, each)
	}
	if spans[0].End < spans[2].End {
		t.Errorf("root ends at %v before its child at %v", spans[0].End, spans[2].End)
	}
}

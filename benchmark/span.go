package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside it: the
// harness opens a span before calling a package's public function and
// closes it when the call returns. Parent is the index of the span
// that caused this one (-1 for a root); Rep identifies the repetition,
// so the spans of one traced repetition share an identifier.
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer was created
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Rep    int     `json:"rep"`
}

// Duration of the span in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out once, at exit.
// It is safe for concurrent use because runner jobs may run on several
// goroutines (the runner.speedup_p2 repetition).
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// SetRep labels every span started afterwards.
func (t *Tracer) SetRep(rep int) {
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// Start opens a span under parent (-1 for none) and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.t0).Seconds(),
		End: -1, Parent: parent, Rep: t.rep})
	return len(t.spans) - 1
}

// End closes span id and returns its duration in seconds.
func (t *Tracer) End(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0).Seconds()
	return t.spans[id].Duration()
}

// Time runs fn inside a span and returns the span's duration.
func (t *Tracer) Time(name string, parent int, fn func()) float64 {
	id := t.Start(name, parent)
	fn()
	return t.End(id)
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap one
// another (jobs on two workers), so their intervals are merged before
// subtracting — a parent is never charged less than zero.
func selfTimes(spans []Span) []float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]float64{lo, hi})
			}
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.Duration() - covered(children[i])
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := 0.0, iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// sumSpans totals the durations of every span called name within rep.
func sumSpans(spans []Span, name string, rep int) (total float64, durations []float64) {
	for _, s := range spans {
		if s.Name == name && s.Rep == rep {
			total += s.Duration()
			durations = append(durations, s.Duration())
		}
	}
	return total, durations
}

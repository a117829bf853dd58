package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/units"
)

// firing is one fired event: when, and which timer.
type firing struct {
	at units.Time
	id int
}

// probeTimer logs its firings and re-arms itself left more times, each
// delay drawn from the simulator's own RNG.
type probeTimer struct {
	s    *Simulator
	id   int
	left int
	log  *[]firing
}

func (p *probeTimer) Fire(now units.Time) {
	*p.log = append(*p.log, firing{now, p.id})
	if p.left > 0 {
		p.left--
		p.s.AfterTimer(units.Time(p.s.RNG().Intn(int(3*units.Millisecond))), p)
	}
}

// probe runs one workload on s to completion and returns what fired. Its
// schedule is drawn from s's RNG, so a stream Reset failed to restore
// fires differently; it forces the width down with a dense phase, fills
// the overflow heap, cancels, re-arms from inside events, and — after
// scheduling, so the stale handles' events may be the very ones it
// reuses — cancels every handle in stale, which must touch nothing.
func probe(s *Simulator, stale []Handle) []firing {
	var log []firing
	id := 0
	at := func(t units.Time, left int) Handle {
		id++
		return s.AtTimer(t, &probeTimer{s: s, id: id, left: left, log: &log})
	}
	for i := 0; i < 12000; i++ {
		at(units.Time(i)*20*units.Microsecond+units.Time(s.RNG().Intn(int(10*units.Microsecond))), 0)
	}
	for i := 0; i < 400; i++ {
		h := at(units.Time(s.RNG().Intn(int(2*units.Second))), s.RNG().Intn(4))
		if s.RNG().Intn(3) == 0 {
			h.Cancel()
		}
	}
	for _, h := range stale {
		h.Cancel()
	}
	s.Run()
	return log
}

// churn gives s a random history: dense traffic that narrows the width
// (growing the lattice), far-future overflow residents, a cancel storm,
// and a horizon stop that leaves events pending. It returns handles to
// events still pending — and to cancelled ones not yet purged.
func churn(s *Simulator, rng *rand.Rand) []Handle {
	noop := timerFunc(func() {})
	var hs []Handle
	dense := 15000 + rng.Intn(10000)
	for i := 0; i < dense; i++ {
		hs = append(hs, s.AtTimer(units.Time(i)*20*units.Microsecond+units.Time(rng.Int63n(int64(10*units.Microsecond))), noop))
	}
	for i := 0; i < 500+rng.Intn(500); i++ {
		h := s.AtTimer(200*units.Millisecond+units.Time(rng.Int63n(int64(3*units.Second))), noop)
		if rng.Intn(10) != 0 {
			h.Cancel()
		}
		hs = append(hs, h)
	}
	s.SetHorizon(units.Time(dense)*15*units.Microsecond + units.Time(rng.Int63n(int64(50*units.Millisecond))))
	s.Run()
	return hs
}

// sameEngine fails unless got is in want's state in everything but the
// storage Reset keeps on purpose: the event pool, and the capacity (not
// the length) of the lattice and the overflow heap.
func sameEngine(t *testing.T, what string, got, want *Simulator) {
	t.Helper()
	g, w := *got, *want
	if *g.rng != *w.rng {
		t.Errorf("%s: RNG state differs", what)
	}
	if len(g.buckets) != len(w.buckets) || len(g.overflow) != len(w.overflow) {
		t.Errorf("%s: lattice / heap lengths %d / %d, want %d / %d", what,
			len(g.buckets), len(g.overflow), len(w.buckets), len(w.overflow))
	}
	if (g.cachedMin == nil) != (w.cachedMin == nil) {
		t.Errorf("%s: peek cache set %v, want %v", what, g.cachedMin != nil, w.cachedMin != nil)
	}
	for _, s := range []*Simulator{&g, &w} {
		s.rng, s.buckets, s.overflow, s.free, s.cold = nil, nil, nil, nil, nil
		s.cachedMin, s.cachedPrev = nil, nil
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: engine state\n got %+v\nwant %+v", what, g, w)
	}
}

// TestResetMatchesNew pins Reset's contract: after any history, a Reset
// simulator is a new one. Each trial gives a simulator a random past,
// Resets it and runs the same probe on it and on a simulator fresh from
// the same constructor. The engine state must match right after Reset
// and after the probe, the fired (time, timer) sequences and the RNG
// streams must be equal, and so must QueueStats and Fired; handles taken
// before Reset must be inert, and no reclaimed event may keep its timer.
func TestResetMatchesNew(t *testing.T) {
	for trial, width := range []units.Time{0, 0, 0, 50 * units.Microsecond} {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		seed := uint64(7 + trial)
		s := NewWithBucketWidth(uint64(rng.Int63()), width)
		stale := churn(s, rng)
		if width == 0 && (s.QueueStats().WidthMoves == 0 || cap(s.buckets) <= numBuckets) {
			t.Fatalf("trial %d: history moved the width %d times, lattice cap %d — it must grow the lattice",
				trial, s.QueueStats().WidthMoves, cap(s.buckets))
		}
		if s.Pending() == 0 || len(s.overflow) == 0 {
			t.Fatalf("trial %d: history left %d pending, %d in the heap — it must stop with both", trial, s.Pending(), len(s.overflow))
		}

		s.Reset(seed)
		fresh := NewWithBucketWidth(seed, width)
		sameEngine(t, "after Reset", s, fresh)
		checkCalendarChains(t, "after Reset", s)
		for i, h := range stale {
			if h.Active() || h.When() != 0 {
				t.Fatalf("trial %d: handle %d taken before Reset is still active", trial, i)
			}
		}

		got, want := probe(s, stale), probe(fresh, nil)
		if !reflect.DeepEqual(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("trial %d: fired %d events, fresh %d; first difference at %d", trial, len(got), len(want), n)
		}
		if s.Fired() != fresh.Fired() || s.QueueStats() != fresh.QueueStats() {
			t.Errorf("trial %d: Fired %d, %+v\nfresh Fired %d, %+v", trial, s.Fired(), s.QueueStats(), fresh.Fired(), fresh.QueueStats())
		}
		sameEngine(t, "after the probe", s, fresh)
		for i := 0; i < 8; i++ {
			if a, b := s.RNG().Uint64(), fresh.RNG().Uint64(); a != b {
				t.Fatalf("trial %d: RNG draw %d is %x, fresh %x", trial, i, a, b)
			}
		}
	}
}

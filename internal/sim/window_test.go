package sim

import (
	"testing"

	"repro/internal/units"
)

// TestRunBeforeStrictBound pins the window primitive's contract:
// events strictly before the bound fire, events at the bound stay
// queued, and the clock rests on the last fired event.
func TestRunBeforeStrictBound(t *testing.T) {
	s := New(1)
	var fired []units.Time
	for _, at := range []units.Time{10, 20, 30, 40} {
		at := at
		s.AtTimer(at, timerFunc(func() { fired = append(fired, at) }))
	}
	now := s.RunBefore(30)
	if now != 20 {
		t.Errorf("clock after RunBefore(30) = %v, want 20", now)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Errorf("fired %v, want [10 20]", fired)
	}
	if next, ok := s.NextEventTime(); !ok || next != 30 {
		t.Errorf("NextEventTime = %v/%v, want 30/true", next, ok)
	}
	// The event at the bound is still live and fires on the next pass.
	s.RunBefore(31)
	if len(fired) != 3 || fired[2] != 30 {
		t.Errorf("after RunBefore(31) fired %v, want the t=30 event", fired)
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("drain fired %d events, want 4", len(fired))
	}
}

// TestRunBeforeIgnoresHorizon pins that the caller's bound, not the
// horizon, limits a windowed drain — shards bound their own windows.
func TestRunBeforeIgnoresHorizon(t *testing.T) {
	s := New(1)
	n := 0
	s.AtTimer(10, timerFunc(func() { n++ }))
	s.AtTimer(20, timerFunc(func() { n++ }))
	s.SetHorizon(15)
	s.RunBefore(25)
	if n != 2 {
		t.Errorf("fired %d events, want 2 (horizon must not bind RunBefore)", n)
	}
}

// TestAdvanceTo pins the clock-only advance and both of its panics.
func TestAdvanceTo(t *testing.T) {
	s := New(1)
	s.AtTimer(50, timerFunc(func() {}))
	s.AdvanceTo(40)
	if s.Now() != 40 {
		t.Errorf("Now = %v, want 40", s.Now())
	}
	// Advancing exactly onto a pending event is allowed: the event has
	// not been skipped, it fires at now on the next drain.
	s.AdvanceTo(50)
	if s.Now() != 50 {
		t.Errorf("Now = %v, want 50", s.Now())
	}
	mustPanic(t, "skip a pending event", func() { s.AdvanceTo(60) })
	mustPanic(t, "move backwards", func() {
		s2 := New(1)
		s2.AtTimer(5, timerFunc(func() {}))
		s2.Run()
		s2.AdvanceTo(1)
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("AdvanceTo did not panic when asked to %s", what)
		}
	}()
	fn()
}

// TestBucketWidthIsNotSemantic pins the calendar-width contract: the
// same event workload fires in the same order at every width, because
// selection is by (time, seq), never by bucket geometry. Width 0 is the
// adaptive policy every production simulator runs; the positive widths
// are pinned.
func TestBucketWidthIsNotSemantic(t *testing.T) {
	run := func(width units.Time) []units.Time {
		s := NewWithBucketWidth(7, width)
		var fired []units.Time
		// A spread that straddles any window: dense near-future, a far
		// tail, and same-instant ties.
		for i := 0; i < 500; i++ {
			at := units.Time(int64((i*997)%1000)) * units.Microsecond
			at += units.Time(i%3) * 40 * units.Millisecond
			s.AtTimer(at, timerFunc(func() { fired = append(fired, s.Now()) }))
		}
		// A long dense stretch, in shuffled schedule order: several
		// windows of evidence, so the adaptive row really moves its width.
		for i := 0; i < 8000; i++ {
			at := 100*units.Millisecond + units.Time(int64((i*7919)%8000))*25*units.Microsecond
			s.AtTimer(at, timerFunc(func() { fired = append(fired, s.Now()) }))
		}
		s.Run()
		if width == 0 && s.QueueStats().WidthMoves == 0 {
			t.Error("adaptive run never moved its width: the row compares nothing")
		}
		return fired
	}
	ref := run(defaultBucketWidth)
	for _, w := range []units.Time{0, units.Microsecond, 50 * units.Microsecond, 4 * units.Millisecond, 500 * units.Millisecond} {
		got := run(w)
		if len(got) != len(ref) {
			t.Fatalf("width %v fired %d events, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("width %v diverged at event %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// benchTicker is a self-re-arming Timer: each firing schedules the
// next by the pattern's inter-event gap until limit events have been
// scheduled in all, however many copies of it are pending at once.
type benchTicker struct {
	s                *Simulator
	gap              func(i int) units.Time
	fired, scheduled int
	limit            int
}

func (t *benchTicker) arm(i int) {
	t.scheduled++
	t.s.AfterTimer(t.gap(i), t)
}

func (t *benchTicker) Fire(units.Time) {
	t.fired++
	if t.scheduled < t.limit {
		t.arm(t.scheduled + 1)
	}
}

// benchBucketWidth keeps a 512-event working set live in a simulator
// built with an explicit calendar bucket width, each firing event
// rescheduling itself by the pattern's next inter-event gap. The
// matrix (pattern × width) maps where the calendar degrades: dense
// patterns punish wide buckets (long intra-bucket scans), sparse ones
// punish narrow buckets (empty-bucket walks), bimodal ones stress the
// overflow path. Width is a pure performance knob — firing order is
// identical at every width (TestBucketWidthIsNotSemantic pins that) —
// so this matrix is the evidence behind the default.
func benchBucketWidth(b *testing.B, width units.Time, gap func(i int) units.Time) {
	s := NewWithBucketWidth(1, width)
	const working = 512
	t := &benchTicker{s: s, limit: b.N, gap: gap}
	b.ResetTimer()
	for i := 0; i < working && t.scheduled < b.N; i++ {
		t.arm(i)
	}
	s.Run()
	if t.fired != t.scheduled {
		b.Fatalf("fired %d of %d", t.fired, t.scheduled)
	}
}

// BenchmarkCalendarBucketWidth is the pattern × width matrix.
func BenchmarkCalendarBucketWidth(b *testing.B) {
	patterns := []struct {
		name string
		gap  func(i int) units.Time
	}{
		// Dense: sub-bucket gaps at the default width — many events per
		// bucket, the intra-bucket ordered-insert path dominates.
		{"dense", func(i int) units.Time {
			return units.Time(i%23+1) * units.Microsecond
		}},
		// Sparse: multi-millisecond gaps — most buckets empty, the
		// empty-bucket advance path dominates.
		{"sparse", func(i int) units.Time {
			return units.Time(i%11+5) * units.Millisecond
		}},
		// Bimodal: microsecond bursts separated by 20 ms silences — the
		// link-lattice-plus-frame-interval shape real runs produce.
		{"bimodal", func(i int) units.Time {
			if i%64 == 0 {
				return 20 * units.Millisecond
			}
			return units.Time(i%3+1) * units.Microsecond
		}},
	}
	widths := []struct {
		name string
		w    units.Time
	}{
		{"w=1us", units.Microsecond},
		{"w=50us", 50 * units.Microsecond},
		{"w=default", New(0).QueueStats().Width},
		{"w=4ms", 4 * units.Millisecond},
		// Width 0 = the density-adaptive policy: it should track the
		// best pinned column of each pattern once the width converges.
		{"w=adaptive", 0},
	}
	for _, p := range patterns {
		for _, w := range widths {
			p, w := p, w
			b.Run(p.name+"/"+w.name, func(b *testing.B) {
				benchBucketWidth(b, w.w, p.gap)
			})
		}
	}
}

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
	ref := run(DefaultBucketWidth)
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

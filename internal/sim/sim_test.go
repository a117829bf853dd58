package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// timerFunc adapts a closure to sim.Timer. Tests only: production code
// schedules through long-lived Timer values.
type timerFunc func()

func (f timerFunc) Fire(units.Time) { f() }

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.AtTimer(30*units.Millisecond, timerFunc(func() { order = append(order, 3) }))
	s.AtTimer(10*units.Millisecond, timerFunc(func() { order = append(order, 1) }))
	s.AtTimer(20*units.Millisecond, timerFunc(func() { order = append(order, 2) }))
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*units.Millisecond {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at the same instant fire in scheduling order, the
	// property determinism rests on.
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.AtTimer(units.Second, timerFunc(func() { order = append(order, i) }))
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

// TestCalendarMatchesReferenceOrder stress-tests the calendar queue
// against the (time, seq) reference order across bucket boundaries,
// window migrations and same-time ties.
func TestCalendarMatchesReferenceOrder(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(7))
	type key struct {
		when units.Time
		seq  int
	}
	var want []key
	var got []key
	for i := 0; i < 5000; i++ {
		// Mix sub-bucket, in-window and far-overflow times.
		var when units.Time
		switch rng.Intn(3) {
		case 0:
			when = units.Time(rng.Int63n(int64(defaultBucketWidth)))
		case 1:
			when = units.Time(rng.Int63n(int64(numBuckets * defaultBucketWidth)))
		default:
			when = units.Time(rng.Int63n(int64(10 * units.Second)))
		}
		i := i
		w := when
		s.AtTimer(when, timerFunc(func() { got = append(got, key{w, i}) }))
		want = append(want, key{when, i})
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.AtTimer(units.Second, timerFunc(func() { fired = true }))
	if !e.Active() {
		t.Fatal("fresh handle not active")
	}
	e.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Active() {
		t.Error("Active() = true after Cancel")
	}
}

func TestCancelStopsCountingInPending(t *testing.T) {
	s := New(1)
	events := make([]Handle, 100)
	for i := range events {
		events[i] = s.AtTimer(units.Time(i+1)*units.Millisecond, timerFunc(func() {}))
	}
	for i, e := range events {
		if i%2 == 1 {
			e.Cancel()
		}
	}
	if s.Pending() != 50 {
		t.Errorf("Pending = %d after cancelling half, want 50", s.Pending())
	}
	s.Run()
	if s.Fired() != 50 {
		t.Errorf("Fired = %d, want 50", s.Fired())
	}
}

// TestCancelAfterFireIsInert is the regression test for the stale
// handle hazard: once an event fired (and its event slot was
// recycled), Cancel through the old handle must not touch whatever
// event is now using the slot, and the closure must not stay pinned.
func TestCancelAfterFireIsInert(t *testing.T) {
	s := New(1)
	n := 0
	e := s.AtTimer(units.Millisecond, timerFunc(func() { n++ }))
	s.Run()
	if n != 1 {
		t.Fatalf("event did not fire")
	}
	if e.Active() {
		t.Error("handle still active after fire")
	}
	e.Cancel() // after firing: must be a no-op
	e.Cancel() // and idempotent
	if s.Pending() != 0 {
		t.Errorf("Pending = %d", s.Pending())
	}
	// The recycled slot is likely reused by the next schedule; the
	// stale handle must not be able to cancel the new occupant.
	e2 := s.AtTimer(2*units.Millisecond, timerFunc(func() { n++ }))
	e.Cancel()
	if !e2.Active() {
		t.Fatal("stale Cancel deactivated a recycled event")
	}
	s.Run()
	if n != 2 {
		t.Errorf("n = %d after post-cancel schedule", n)
	}
}

// TestCancelReleasesClosure verifies a cancelled event does not pin
// its Timer (here a closure) until its timestamp: the event's timer is
// nilled at Cancel time even though the slot is reclaimed lazily.
func TestCancelReleasesClosure(t *testing.T) {
	s := New(1)
	big := make([]byte, 1<<20)
	h := s.AtTimer(3600*units.Second, timerFunc(func() { _ = big }))
	h.Cancel()
	if h.e.timer != nil {
		t.Fatal("cancelled event still pins its callback")
	}
}

func TestCancelInterleavedKeepsOrdering(t *testing.T) {
	// Cancelling a subset must not disturb the (time, seq) ordering of
	// the surviving events.
	s := New(1)
	var order []int
	var cancels []Handle
	for i := 0; i < 50; i++ {
		i := i
		e := s.AtTimer(units.Time(50-i)*units.Millisecond, timerFunc(func() { order = append(order, 50-i) }))
		if i%3 == 0 {
			cancels = append(cancels, e)
		}
	}
	for _, e := range cancels {
		e.Cancel()
	}
	s.Run()
	for j := 1; j < len(order); j++ {
		if order[j] < order[j-1] {
			t.Fatalf("ordering broken after lazy removals: %v", order)
		}
	}
}

func TestTimerScheduling(t *testing.T) {
	s := New(1)
	ct := &benchTicker{s: s, limit: 10, gap: func(int) units.Time { return units.Millisecond }}
	ct.arm(0)
	s.Run()
	if ct.fired != 10 {
		t.Fatalf("timer fired %d times, want 10", ct.fired)
	}
	if s.Now() != 10*units.Millisecond {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestTimerSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	ct := &benchTicker{s: s, limit: 100, gap: func(int) units.Time { return units.Microsecond }}
	// Warm the free list and bucket slices.
	ct.arm(0)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		ct.limit = ct.scheduled + 10
		ct.arm(0)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state timer scheduling allocates %.1f/op, want 0", allocs)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.AtTimer(units.Second, timerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.AtTimer(0, timerFunc(func() {}))
	}))
	s.Run()
}

func TestAfterFromWithinEvent(t *testing.T) {
	s := New(1)
	var at units.Time
	s.AfterTimer(units.Second, timerFunc(func() {
		s.AfterTimer(500*units.Millisecond, timerFunc(func() { at = s.Now() }))
	}))
	s.Run()
	if at != 1500*units.Millisecond {
		t.Errorf("nested After fired at %v", at)
	}
}

// TestHorizonKeepsFutureEvents is the regression test for the
// pop-and-drop horizon bug: an event beyond a RunUntil horizon must
// survive to a later Run call.
func TestHorizonKeepsFutureEvents(t *testing.T) {
	s := New(1)
	fired := false
	s.AtTimer(2*units.Second, timerFunc(func() { fired = true }))
	s.RunUntil(units.Second)
	if fired {
		t.Fatal("event fired before its time")
	}
	if s.Now() != units.Second {
		t.Fatalf("Now = %v after RunUntil(1s)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(3 * units.Second)
	if !fired {
		t.Fatal("event lost across RunUntil boundary")
	}
}

// TestScheduleBehindAdvancedWindow covers the calendar cursor reset:
// after the window advances to a far-future event (horizon pause), a
// new event scheduled before the window base must still fire first.
func TestScheduleBehindAdvancedWindow(t *testing.T) {
	s := New(1)
	var order []string
	s.AtTimer(10*units.Second, timerFunc(func() { order = append(order, "far") }))
	s.RunUntil(units.Second) // advances the window toward the far event
	s.AtTimer(2*units.Second, timerFunc(func() { order = append(order, "near") }))
	s.Run()
	if len(order) != 2 || order[0] != "near" || order[1] != "far" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntilRepeatedBoundaries(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 50 {
			s.AfterTimer(100*units.Millisecond, timerFunc(tick))
		}
	}
	s.AfterTimer(100*units.Millisecond, timerFunc(tick))
	for sec := 1; sec <= 6; sec++ {
		s.RunUntil(units.Time(sec) * units.Second)
	}
	if count != 50 {
		t.Errorf("count = %d, want 50", count)
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	n := 0
	for i := 1; i <= 10; i++ {
		s.AtTimer(units.Time(i)*units.Second, timerFunc(func() {
			n++
			if n == 3 {
				s.Halt()
			}
		}))
	}
	s.Run()
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	// A subsequent Run resumes the remaining events.
	s.Run()
	if n != 10 {
		t.Errorf("after resume n = %d, want 10", n)
	}
}

func TestFiredCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.AfterTimer(units.Time(i)*units.Millisecond, timerFunc(func() {}))
	}
	s.Run()
	if s.Fired() != 7 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

func TestZeroHandle(t *testing.T) {
	var h Handle
	if h.Active() {
		t.Error("zero handle active")
	}
	if h.When() != 0 {
		t.Error("zero handle has a When")
	}
	h.Cancel() // must not panic
}

func TestHandleWhen(t *testing.T) {
	s := New(1)
	h := s.AtTimer(3*units.Second, timerFunc(func() {}))
	if h.When() != 3*units.Second {
		t.Errorf("When = %v", h.When())
	}
	h.Cancel()
	if h.When() != 0 {
		t.Errorf("When after cancel = %v", h.When())
	}
}

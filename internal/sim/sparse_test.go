package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// Sparse-workload stress for the calendar queue: a tcp-only run with
// long retransmission timeouts schedules almost nothing inside the
// 64 ms calendar window — every RTO lands in the overflow heap, and
// each firing rebases the window onto the overflow minimum and
// migrates whatever now fits. This is the regime the ROADMAP's
// "adaptive calendar-queue width" item targets; before touching the
// width policy, pin the current structure's exact (time, seq) firing
// order against the reference sort under heavy rebase pressure.

// rtoEvent mirrors the shape of a tcpsim long-RTO schedule entry.
type rtoEvent struct {
	when units.Time
	seq  int
}

// TestCalendarSparseLongRTOSchedule drives the schedule a tcp-only
// simulation with repeated RTO backoff produces: short in-window
// bursts (a flight of segments and their ACK timers), then an
// exponentially backed-off silence — 200 ms doubling to the 64 s RTO
// ceiling — far beyond the 64 ms calendar window, so every burst
// forces a window rebase and an overflow migration. Cancels model
// ACKs disarming pending retransmission timers. The firing order must
// match the (time, seq) reference sort exactly.
func TestCalendarSparseLongRTOSchedule(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(17))

	var want []rtoEvent
	var got []rtoEvent
	seq := 0
	add := func(when units.Time, cancelled bool) {
		id := seq
		seq++
		h := s.AtTimer(when, timerFunc(func() { got = append(got, rtoEvent{when, id}) }))
		if cancelled {
			h.Cancel()
			return
		}
		want = append(want, rtoEvent{when, id})
	}

	// Ten connections, each cycling through RTO backoff epochs.
	for conn := 0; conn < 10; conn++ {
		base := units.Time(conn) * 37 * units.Millisecond
		rto := 200 * units.Millisecond
		for epoch := 0; epoch < 9; epoch++ {
			// The flight: a handful of segment transmissions clustered
			// within a few bucket widths of the epoch start.
			flight := 3 + rng.Intn(5)
			for i := 0; i < flight; i++ {
				at := base + units.Time(rng.Int63n(int64(2*units.Millisecond)))
				// Roughly half the per-segment timers are disarmed by an
				// "ACK" before firing, the calendar's lazy-purge path.
				add(at, rng.Intn(2) == 0)
			}
			// The retransmission timer itself: one far-future event per
			// epoch, doubling each time (the overflow resident).
			add(base+rto, false)
			base += rto
			if rto < 64*units.Second {
				rto *= 2
			}
		}
	}

	sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending after drain", s.Pending())
	}
}

// TestCalendarCancelStormPurgesHeap models the schedule a cancel-heavy
// tcp run produces: sprays of retransmission timers pushed far beyond
// the calendar window, almost all of which are disarmed by an "ACK"
// before firing. The dead events accumulate deep inside the overflow
// heap where the lazy top-purge never reaches them; the rebase-point
// compaction must reclaim them mid-run (not at drain time), and the
// surviving events must still fire in exact (time, seq) order.
func TestCalendarCancelStormPurgesHeap(t *testing.T) {
	s := New(3)
	rng := rand.New(rand.NewSource(41))

	var want []rtoEvent
	var got []rtoEvent
	id := 0
	add := func(when units.Time, cancel bool) {
		k := rtoEvent{when, id}
		id++
		h := s.AtTimer(when, timerFunc(func() { got = append(got, k) }))
		if cancel {
			h.Cancel()
			return
		}
		want = append(want, k)
	}

	// Forty rounds: each sprays RTO timers 200 ms – 1 s out (overflow
	// residents) and cancels 90% of them, plus a trickle of in-window
	// traffic that keeps the window draining and rebasing through the
	// storm.
	for round := 0; round < 40; round++ {
		base := units.Time(round) * 50 * units.Millisecond
		for i := 0; i < 100; i++ {
			at := base + 200*units.Millisecond + units.Time(rng.Int63n(int64(800*units.Millisecond)))
			add(at, rng.Intn(10) != 0)
		}
		for i := 0; i < 4; i++ {
			add(base+units.Time(rng.Int63n(int64(40*units.Millisecond))), false)
		}
	}

	sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	qs := s.QueueStats()
	if qs.Compactions == 0 {
		t.Errorf("cancel storm triggered no overflow compaction (purged %d, rebases %d)",
			qs.PurgedCancelled, qs.Rebases)
	}
	if qs.PurgedCancelled == 0 {
		t.Errorf("no cancelled events purged")
	}
	if s.heapDead != 0 {
		t.Errorf("%d dead events still accounted in the drained heap", s.heapDead)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending after drain", s.Pending())
	}
}

// TestCalendarBimodalWidthTransitions alternates dense (~20 µs
// spacing) and sparse (~1 ms spacing) phases, each long enough for
// the adaptive policy's hysteresis to act, so the width is forced
// through repeated shrink and grow transitions. Every phase is
// differentially checked against the (time, seq) reference sort, and
// the sampled widths must show movement in both directions.
func TestCalendarBimodalWidthTransitions(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(53))

	var want []rtoEvent
	var got []rtoEvent
	id := 0
	add := func(when units.Time, cancel bool) {
		k := rtoEvent{when, id}
		id++
		h := s.AtTimer(when, timerFunc(func() { got = append(got, k) }))
		if cancel {
			h.Cancel()
			return
		}
		want = append(want, k)
	}

	now := units.Time(0)
	var widths []units.Time
	for cycle := 0; cycle < 3; cycle++ {
		// Dense phase: 20k events at ~20 µs spacing (≈400 ms — several
		// calendar windows at any width the policy can pick), 5%
		// cancelled.
		for i := 0; i < 20000; i++ {
			at := now + units.Time(i)*20*units.Microsecond + units.Time(rng.Int63n(int64(10*units.Microsecond)))
			add(at, rng.Intn(20) == 0)
		}
		now += 410 * units.Millisecond
		s.RunUntil(now)
		widths = append(widths, s.width)

		// Sparse phase: 600 events at ~1 ms spacing (≈600 ms).
		for i := 0; i < 600; i++ {
			at := now + units.Time(i)*units.Millisecond + units.Time(rng.Int63n(int64(500*units.Microsecond)))
			add(at, false)
		}
		now += 610 * units.Millisecond
		s.RunUntil(now)
		widths = append(widths, s.width)
	}
	s.Run()

	sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	var shrank, grew bool
	for _, w := range widths {
		if w < DefaultBucketWidth {
			shrank = true
		}
		if w > DefaultBucketWidth {
			grew = true
		}
	}
	qs := s.QueueStats()
	if !shrank || !grew || qs.WidthMoves < 2 {
		t.Errorf("bimodal load did not force both transitions: widths %v, moves %d",
			widths, qs.WidthMoves)
	}
}

// TestCalendarBurstGapAdaptiveSchedule is the burst-gap pattern: tight
// event bursts (300 events within 1.5 ms) separated by 300 ms
// silences, then a long dense tail. The window-mean spacing of the
// burst phase (~1 ms) must grow the width past the default; the dense
// tail must bring it back down — with the full firing sequence still
// matching the reference sort across every transition.
func TestCalendarBurstGapAdaptiveSchedule(t *testing.T) {
	s := New(11)
	rng := rand.New(rand.NewSource(67))

	var want []rtoEvent
	var got []rtoEvent
	id := 0
	add := func(when units.Time, cancel bool) {
		k := rtoEvent{when, id}
		id++
		h := s.AtTimer(when, timerFunc(func() { got = append(got, k) }))
		if cancel {
			h.Cancel()
			return
		}
		want = append(want, k)
	}

	for burst := 0; burst < 40; burst++ {
		base := units.Time(burst) * 300 * units.Millisecond
		for i := 0; i < 300; i++ {
			at := base + units.Time(i)*5*units.Microsecond + units.Time(rng.Int63n(int64(2*units.Microsecond)))
			add(at, rng.Intn(8) == 0)
		}
	}
	tail := 12 * units.Second
	for i := 0; i < 200000; i++ {
		at := tail + units.Time(i)*10*units.Microsecond + units.Time(rng.Int63n(int64(5*units.Microsecond)))
		add(at, false)
	}

	s.RunUntil(tail)
	wideWidth := s.width
	s.Run()

	sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if wideWidth <= DefaultBucketWidth {
		t.Errorf("burst-gap phase did not widen: width %v after bursts", wideWidth)
	}
	if s.width >= DefaultBucketWidth {
		t.Errorf("dense tail did not narrow: width %v at drain", s.width)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending after drain", s.Pending())
	}
}

// TestCalendarRebaseInterleavedWithDense interleaves the sparse RTO
// pattern with a dense near-future packet stream, so window advances
// happen while buckets still drain — rebases must never reorder or
// drop the in-window traffic that races them.
func TestCalendarRebaseInterleavedWithDense(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(29))

	type key struct {
		when units.Time
		seq  int
	}
	var want []key
	var got []key
	for i := 0; i < 4000; i++ {
		var when units.Time
		switch rng.Intn(4) {
		case 0:
			// Dense sub-window traffic.
			when = units.Time(rng.Int63n(int64(numBuckets * DefaultBucketWidth)))
		case 1:
			// Just past the window edge: migrates on the first rebase.
			when = units.Time(numBuckets*DefaultBucketWidth) + units.Time(rng.Int63n(int64(DefaultBucketWidth)))
		default:
			// Long-RTO silence: seconds to minutes out.
			when = units.Time(rng.Int63n(int64(120 * units.Second)))
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

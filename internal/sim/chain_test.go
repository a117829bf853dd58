package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// Integrity tests for the calendar's intrusive chains. The other
// TestCalendar… tests compare firing order only, so a broken link
// shows up as a wrong order (or a hang) some steps after the operation
// that broke it; these walk every chain after every operation and fail
// at the step that did the damage.

// chainRec is the model's view of one scheduled event.
type chainRec struct {
	when    units.Time
	h       Handle
	state   int8       // recLive, recFired or recCancelled
	respawn units.Time // > 0: schedule a follow-up this far ahead on firing
	kills   bool       // cancel some live event on firing (an ACK disarming an RTO)
}

const (
	recLive int8 = iota
	recFired
	recCancelled
)

// chainHarness drives a simulator and a plain model of it side by
// side. Record ids are assigned in scheduling order, exactly as the
// simulator assigns sequence numbers, so (when, id) is the reference
// order.
type chainHarness struct {
	t       *testing.T
	s       *Simulator
	rng     *rand.Rand
	recs    []*chainRec
	got     []int // ids in firing order
	checked int   // prefix of got already compared with the reference
}

func (h *chainHarness) add(when units.Time, respawn units.Time, kills bool) int {
	id := len(h.recs)
	r := &chainRec{when: when, respawn: respawn, kills: kills}
	h.recs = append(h.recs, r)
	r.h = h.s.AtTimer(when, timerFunc(func() { h.fired(id) }))
	return id
}

func (h *chainHarness) fired(id int) {
	r := h.recs[id]
	if r.state != recLive {
		h.t.Errorf("event %d fired in state %d", id, r.state)
	}
	if h.s.Now() != r.when {
		h.t.Errorf("event %d fired at %v, scheduled for %v", id, h.s.Now(), r.when)
	}
	r.state = recFired
	h.got = append(h.got, id)
	if r.respawn > 0 {
		h.add(h.s.Now()+r.respawn, 0, false)
	}
	if r.kills {
		h.cancelRandom()
	}
}

func (h *chainHarness) cancel(id int) {
	r := h.recs[id]
	r.h.Cancel()
	if r.state == recLive {
		r.state = recCancelled
	}
}

func (h *chainHarness) cancelRandom() {
	var live []int
	for id, r := range h.recs {
		if r.state == recLive {
			live = append(live, id)
		}
	}
	if len(live) > 0 {
		h.cancel(live[h.rng.Intn(len(live))])
	}
}

// modelMin is the reference answer to NextEventTime.
func (h *chainHarness) modelMin() (units.Time, bool) {
	var best *chainRec
	for _, r := range h.recs {
		if r.state == recLive && (best == nil || r.when < best.when) {
			best = r
		}
	}
	if best == nil {
		return 0, false
	}
	return best.when, true
}

func (h *chainHarness) checkPeek(what string) {
	h.t.Helper()
	wantT, wantOK := h.modelMin()
	if gotT, gotOK := h.s.NextEventTime(); gotT != wantT || gotOK != wantOK {
		h.t.Fatalf("%s: NextEventTime = %v, %v; reference %v, %v", what, gotT, gotOK, wantT, wantOK)
	}
}

// verifyFired compares what fired since the last call with the
// reference sort: every record that was not cancelled, had not fired
// before, and lies strictly before bound (all of them when bound < 0),
// by (when, id).
func (h *chainHarness) verifyFired(what string, bound units.Time) {
	h.t.Helper()
	before := make(map[int]bool, h.checked)
	for _, id := range h.got[:h.checked] {
		before[id] = true
	}
	var want []int
	for id, r := range h.recs {
		if r.state != recCancelled && !before[id] && (bound < 0 || r.when < bound) {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		ra, rb := h.recs[want[a]], h.recs[want[b]]
		if ra.when != rb.when {
			return ra.when < rb.when
		}
		return want[a] < want[b]
	})
	got := h.got[h.checked:]
	if len(got) != len(want) {
		h.t.Fatalf("%s: fired %d events, reference sort has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			h.t.Fatalf("%s: position %d fired event %d (when %v), reference %d (when %v)",
				what, i, got[i], h.recs[got[i]].when, want[i], h.recs[want[i]].when)
		}
	}
	h.checked = len(h.got)
}

// checkChains walks the simulator's structures and compares them with
// the model: every live record linked exactly once.
func (h *chainHarness) checkChains(what string) {
	h.t.Helper()
	live := 0
	seen := checkCalendarChains(h.t, what, h.s)
	for id, r := range h.recs {
		if r.state != recLive {
			continue
		}
		live++
		if !r.h.Active() {
			h.t.Fatalf("%s: live event %d has an inactive handle", what, id)
		}
		if !seen[r.h.e] {
			h.t.Fatalf("%s: live event %d (when %v) is on no chain and not in the heap", what, id, r.when)
		}
	}
	if h.s.Pending() != live {
		h.t.Fatalf("%s: Pending() = %d, model has %d live", what, h.s.Pending(), live)
	}
}

// checkCalendarChains walks every bucket chain through the lattice's
// full capacity, the overflow heap and the free list. It fails unless
// each event is reached exactly once, every bucketed event respects its
// bucket's upper bound and the cursor, heads beyond the lattice's
// length are nil, the counters (nBuckets, heapDead, Pending) equal the
// walked counts, and the peek cache names a real predecessor. It
// returns the pending (bucketed or heaped) events it reached.
func checkCalendarChains(t *testing.T, what string, s *Simulator) map[*Event]bool {
	t.Helper()
	seen := make(map[*Event]bool)
	walked, live := 0, 0
	all := s.buckets[:cap(s.buckets)]
	for b, head := range all {
		if b >= len(s.buckets) && head != nil {
			t.Fatalf("%s: bucket %d beyond the %d-bucket lattice has a non-nil head", what, b, len(s.buckets))
		}
		end := s.base + units.Time(b+1)*s.width
		for e := head; e != nil; e = e.next {
			if seen[e] {
				t.Fatalf("%s: event (when %v seq %d) linked twice, again in bucket %d", what, e.when, e.seq, b)
			}
			seen[e] = true
			walked++
			if b < s.cur {
				t.Fatalf("%s: bucket %d behind the cursor %d holds an event", what, b, s.cur)
			}
			if e.when >= end {
				t.Fatalf("%s: event at %v sits in bucket %d, which ends at %v", what, e.when, b, end)
			}
			if e.inHeap {
				t.Fatalf("%s: bucketed event at %v is flagged inHeap", what, e.when)
			}
			if !e.cancelled {
				live++
			}
		}
	}
	if walked != s.nBuckets {
		t.Fatalf("%s: walked %d bucketed events, nBuckets = %d", what, walked, s.nBuckets)
	}
	dead := 0
	for _, e := range s.overflow {
		if seen[e] {
			t.Fatalf("%s: heap event at %v is also on a bucket chain", what, e.when)
		}
		seen[e] = true
		if !e.inHeap {
			t.Fatalf("%s: heap event at %v is not flagged inHeap", what, e.when)
		}
		if e.cancelled {
			dead++
		} else {
			live++
		}
	}
	if dead != s.heapDead {
		t.Fatalf("%s: %d cancelled events in the heap, heapDead = %d", what, dead, s.heapDead)
	}
	if live != s.Pending() {
		t.Fatalf("%s: walked %d live events, Pending() = %d", what, live, s.Pending())
	}
	free := 0
	for e := s.free; e != nil; e = e.next {
		if seen[e] {
			t.Fatalf("%s: free-list event is also pending (when %v seq %d)", what, e.when, e.seq)
		}
		if e.timer != nil || e.cancelled || e.inHeap {
			t.Fatalf("%s: free-list event not cleared: %+v", what, *e)
		}
		if free++; free > 1<<24 {
			t.Fatalf("%s: free list does not end", what)
		}
	}
	if m := s.cachedMin; m != nil {
		if p := s.cachedPrev; p == nil && s.buckets[s.cachedBucket] != m || p != nil && p.next != m {
			t.Fatalf("%s: cachedPrev does not precede cachedMin (when %v) in bucket %d", what, m.when, s.cachedBucket)
		}
	}
	return seen
}

// TestCalendarChainMatchesReferenceSort mixes AtTimer, Cancel,
// NextEventTime and RunBefore at random over 240 seeds and four
// calendar geometries — the widest puts every near event on one chain —
// with events that schedule or cancel from inside Fire, comparing every
// firing with the (when, seq) reference sort and walking every chain
// after every operation.
func TestCalendarChainMatchesReferenceSort(t *testing.T) {
	widths := []units.Time{0, 4 * units.Millisecond, 50 * units.Microsecond, 0}
	delta := func(rng *rand.Rand) units.Time {
		switch r := rng.Intn(20); {
		case r < 12:
			return units.Time(rng.Int63n(int64(2 * units.Millisecond)))
		case r < 17:
			return units.Time(rng.Int63n(int64(100 * units.Millisecond)))
		default:
			return units.Time(rng.Int63n(int64(5 * units.Second)))
		}
	}
	for seed := 1; seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := &chainHarness{t: t, s: NewWithBucketWidth(uint64(seed), widths[seed%len(widths)]), rng: rng}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				var respawn units.Time
				if rng.Intn(4) == 0 {
					respawn = 1 + delta(rng)
				}
				h.add(h.s.Now()+delta(rng), respawn, rng.Intn(6) == 0)
			case op < 13:
				h.cancelRandom()
			case op < 15:
				h.checkPeek("peek")
			default:
				bound := h.s.Now() + delta(rng)
				// A peek first, so the run starts from a warm cache as
				// often as from a cold one.
				if rng.Intn(2) == 0 {
					h.checkPeek("peek before run")
				}
				h.s.RunBefore(bound)
				h.verifyFired("RunBefore", bound)
			}
			h.checkChains("after step")
		}
		h.s.Run()
		h.verifyFired("drain", -1)
		h.checkChains("drained")
		if h.s.Pending() != 0 || h.s.nBuckets != 0 || len(h.s.overflow) != 0 {
			t.Fatalf("seed %d: drained simulator holds %d pending, %d bucketed, %d heaped",
				seed, h.s.Pending(), h.s.nBuckets, len(h.s.overflow))
		}
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestCalendarChainForcedCases pins the chain positions that matter
// around a cached minimum. Five events share bucket 0 of a 1 ms
// calendar; scheduling prepends, so the chain reads 4 → 3 → 2 → 1 → 0
// and event 2 — the earliest — sits mid-chain with 3 as predecessor,
// 1 as successor, 4 at the head and 0 at the tail. Each case peeks
// (filling the cache), mutates, and must still pop in reference order.
func TestCalendarChainForcedCases(t *testing.T) {
	const us = units.Microsecond
	midChain := []units.Time{500 * us, 300 * us, 100 * us, 400 * us, 200 * us}
	cases := []struct {
		name   string
		whens  []units.Time // nil: midChain
		mutate func(h *chainHarness)
	}{
		{"cancel the predecessor", nil, func(h *chainHarness) { h.cancel(3) }},
		{"cancel the successor", nil, func(h *chainHarness) { h.cancel(1) }},
		{"cancel the chain head", nil, func(h *chainHarness) { h.cancel(4) }},
		{"cancel the chain tail", nil, func(h *chainHarness) { h.cancel(0) }},
		{"cancel the minimum", nil, func(h *chainHarness) { h.cancel(2) }},
		{"cancel everything but the minimum", nil, func(h *chainHarness) {
			for _, id := range []int{0, 1, 3, 4} {
				h.cancel(id)
			}
		}},
		{"schedule later into the cached bucket", nil, func(h *chainHarness) { h.add(250*us, 0, false) }},
		{"schedule earlier into the cached bucket", nil, func(h *chainHarness) { h.add(50*us, 0, false) }},
		{"schedule behind a minimum that heads its chain",
			[]units.Time{500 * us, 400 * us, 300 * us, 200 * us, 100 * us},
			func(h *chainHarness) { h.add(250*us, 0, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &chainHarness{t: t, s: NewWithBucketWidth(1, units.Millisecond), rng: rand.New(rand.NewSource(1))}
			whens := tc.whens
			if whens == nil {
				whens = midChain
			}
			for _, w := range whens {
				h.add(w, 0, false)
			}
			h.checkPeek("first peek")
			if tc.whens == nil {
				if h.s.cachedMin != h.recs[2].h.e || h.s.cachedPrev != h.recs[3].h.e || h.s.buckets[0] != h.recs[4].h.e {
					t.Fatalf("set-up is not the chain this test describes")
				}
			}
			h.checkChains("after peek")
			tc.mutate(h)
			h.checkChains("after mutation")
			h.checkPeek("second peek")
			h.checkChains("after second peek")
			h.s.Run()
			h.verifyFired("drain", -1)
			h.checkChains("drained")
		})
	}

	// Cancel a whole bucket, then let the window rebase onto a heap
	// resident: the scan must unlink and count all five, leave a nil
	// head, and the rebase must file the survivor on a clean lattice.
	t.Run("cancel a whole bucket then rebase", func(t *testing.T) {
		h := &chainHarness{t: t, s: NewWithBucketWidth(1, units.Millisecond), rng: rand.New(rand.NewSource(1))}
		for _, w := range midChain {
			h.add(w, 0, false)
		}
		far := h.add(10*units.Second, 0, false)
		h.checkPeek("first peek")
		for id := range midChain {
			h.cancel(id)
		}
		h.checkChains("after cancelling the bucket")
		h.checkPeek("peek across the rebase")
		h.checkChains("after the rebase")
		qs := h.s.QueueStats()
		if qs.PurgedCancelled != uint64(len(midChain)) || qs.Rebases != 1 {
			t.Fatalf("purged %d cancelled events over %d rebases, want %d over 1", qs.PurgedCancelled, qs.Rebases, len(midChain))
		}
		if h.s.cachedMin != h.recs[far].h.e || h.s.nBuckets != 1 {
			t.Fatalf("rebase did not file the survivor alone: nBuckets %d", h.s.nBuckets)
		}
		h.s.Run()
		h.verifyFired("drain", -1)
		h.checkChains("drained")
	})
}

// TestCalendarChainWidthMoveReslice drives the adaptive width through
// dense → sparse → dense load. The first dense phase allocates a larger
// lattice, the sparse phase re-slices it down to 256 heads and files
// events on them, and the second dense phase re-slices it back up —
// exposing heads the smaller lattice never touched, which is only
// sound if every one of them is nil. The walker checks exactly that,
// every 20 ms of simulated time.
func TestCalendarChainWidthMoveReslice(t *testing.T) {
	h := &chainHarness{t: t, s: New(7), rng: rand.New(rand.NewSource(53))}
	now := units.Time(0)
	run := func(span units.Time) {
		for end := now + span; now < end; {
			now += 20 * units.Millisecond
			h.s.RunBefore(now)
			h.verifyFired("RunBefore", now)
			h.checkChains("mid-phase")
		}
	}
	dense := func() {
		for i := 0; i < 20000; i++ {
			at := now + units.Time(i)*20*units.Microsecond + units.Time(h.rng.Int63n(int64(10*units.Microsecond)))
			id := h.add(at, 0, false)
			if h.rng.Intn(20) == 0 {
				h.cancel(id)
			}
		}
		run(420 * units.Millisecond)
	}
	sparse := func() {
		for i := 0; i < 600; i++ {
			h.add(now+units.Time(i)*units.Millisecond+units.Time(h.rng.Int63n(int64(500*units.Microsecond))), 0, false)
		}
		run(620 * units.Millisecond)
	}

	dense()
	grown, grownCap := len(h.s.buckets), cap(h.s.buckets)
	if grown <= numBuckets {
		t.Fatalf("dense load did not grow the lattice: %d buckets at width %v", grown, h.s.width)
	}
	sparse()
	if len(h.s.buckets) != numBuckets || cap(h.s.buckets) != grownCap {
		t.Fatalf("sparse load did not re-slice the lattice down: len %d cap %d (grown cap %d)",
			len(h.s.buckets), cap(h.s.buckets), grownCap)
	}
	dense()
	if len(h.s.buckets) <= numBuckets || cap(h.s.buckets) != grownCap {
		t.Fatalf("second dense phase did not re-slice the lattice back up: len %d cap %d (grown cap %d)",
			len(h.s.buckets), cap(h.s.buckets), grownCap)
	}
	h.s.Run()
	h.verifyFired("drain", -1)
	h.checkChains("drained")
}

package sim

import "repro/internal/units"

// Density-adaptive calendar width.
//
// The calendar's bucket width is the one geometry parameter that
// matters for dequeue cost: too wide and min() scans crowded buckets
// (O(occupancy) per pop), too narrow and most events bypass the
// window into the overflow heap (O(log n) per event, plus a migration
// touch at every rebase). The classic calendar-queue rule is to keep
// bucket occupancy near one — width ≈ the mean spacing between
// events.
//
// Instead of guessing that spacing at construction time, the
// simulator measures it: every window rebase knows exactly how many
// events fired since the last width decision and how much simulated
// time they covered, so mean firing spacing is two counters and one
// division on a path that runs once per window, not per event.
//
// The decision is deliberately sluggish — geometry changes cost a
// lattice re-derivation, so width only moves on sustained pressure:
//
//   - a decision needs at least adaptMinFired firings of evidence
//     (windows accumulate until they have it);
//   - the pow2 target must sit a full dead band (two octaves) away
//     from the current width; and
//   - two consecutive decisions must agree on the direction.
//
// Rebase is the only mutation point because the lattice is provably
// empty there: changing width is a slice-header swap, never an event
// move, so the (time, seq) firing order is untouched by construction.
// Widths pinned via NewWithBucketWidth disable the policy entirely.

const (
	// adaptMinWidth / adaptMaxWidth clamp adaptive width targets.
	// 512 ns resolves the densest six-figure fleet runs while
	// bucketCount's maxBuckets cap keeps the window span at tens of
	// milliseconds; 2^22 ns (~4.2 ms) spans a full second of sparse
	// schedule per window at numBuckets buckets.
	adaptMinWidth units.Time = 512
	adaptMaxWidth units.Time = 1 << 22

	// adaptMinFired is the minimum evidence for a width decision;
	// rebases with fewer firings since the last decision accumulate
	// instead of deciding on noise.
	adaptMinFired = 64

	// widthDeadBand is the hysteresis band: a target moves the width
	// only when it is at least this factor (two octaves) away.
	widthDeadBand = 4

	// compactMinDead is the overflow-compaction floor: rebases rebuild
	// the heap only once at least this many cancelled events are
	// resident and they make up a quarter of the heap.
	compactMinDead = 64
)

// widthForSpacing rounds a mean event spacing up to the next power of
// two, clamped to the adaptive range.
func widthForSpacing(spacing units.Time) units.Time {
	w := adaptMinWidth
	for w < spacing && w < adaptMaxWidth {
		w <<= 1
	}
	return w
}

// adaptWidth runs the width decision at a rebase whose next window
// base is nextBase. Only called on adaptive simulators, with the
// lattice empty.
func (s *Simulator) adaptWidth(nextBase units.Time) {
	fired := s.fired - s.decideFired
	if fired < adaptMinFired {
		return // not enough evidence yet; keep accumulating
	}
	elapsed := nextBase - s.decideTime
	s.decideFired = s.fired
	s.decideTime = nextBase
	if elapsed <= 0 {
		return
	}
	target := widthForSpacing(elapsed / units.Time(fired))
	var dir int8
	switch {
	case target >= s.width*widthDeadBand:
		dir = 1
	case target*widthDeadBand <= s.width:
		dir = -1
	}
	if dir == 0 || dir != s.lastDir {
		s.lastDir = dir
		return
	}
	s.lastDir = 0
	s.setWidth(target)
}

// setWidth moves the calendar to a new bucket width, re-deriving the
// lattice size. Reached only with an empty lattice — every chain head,
// including those beyond len that a re-slice exposes, is nil — so
// resizing is a slice operation; a previously grown array is re-sliced
// rather than reallocated, keeping repeated grow/shrink transitions
// allocation-free after the first.
func (s *Simulator) setWidth(w units.Time) {
	s.width = w
	s.qWidthMoves++
	n := bucketCount(w)
	switch {
	case n == len(s.buckets):
	case n <= cap(s.buckets):
		s.buckets = s.buckets[:n]
	default:
		s.buckets = make([]*event, n)
	}
}

// compactOverflow rebuilds the overflow heap without its cancelled
// events. Migration already drops dead events it pops, but a
// cancel-heavy schedule (tcp retransmit timers that almost always get
// cancelled) can bury dead weight deep in the heap where only a full
// sweep reclaims it; doing that sweep at the rebase point amortizes
// it against the migration the rebase performs anyway.
func (s *Simulator) compactOverflow() {
	h := s.overflow
	n := len(h)
	live := h[:0]
	for _, e := range h {
		if e.cancelled {
			e.inHeap = false
			s.release(e)
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < n; i++ {
		h[i] = nil
	}
	s.overflow = live
	s.heapDead = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.qCompactions++
}

// QueueStats is a point-in-time snapshot of calendar-queue telemetry:
// current geometry, how often the window rebased and the width moved,
// and how the scheduled-event population split between the bucket
// lattice and the overflow heap.
type QueueStats struct {
	Width    units.Time // current bucket width
	Adaptive bool       // false when the width was pinned at construction

	Rebases    uint64 // window rebases performed
	WidthMoves uint64 // adaptive width transitions
	Scheduled  uint64 // events ever scheduled
	Overflowed uint64 // schedules that landed in the overflow heap

	Compactions     uint64 // overflow-heap compactions
	PurgedCancelled uint64 // cancelled events reclaimed before firing
}

// QueueStats returns the simulator's calendar-queue telemetry.
func (s *Simulator) QueueStats() QueueStats {
	return QueueStats{
		Width: s.width, Adaptive: s.adaptive,
		Rebases: s.qRebases, WidthMoves: s.qWidthMoves,
		Scheduled: s.qScheduled, Overflowed: s.qOverflowed,
		Compactions: s.qCompactions, PurgedCancelled: s.qPurged,
	}
}

// OverflowRatio reports the share of scheduled events that landed in
// the overflow heap rather than the bucket window; 0 for an empty
// run.
func (qs QueueStats) OverflowRatio() float64 {
	if qs.Scheduled == 0 {
		return 0
	}
	return float64(qs.Overflowed) / float64(qs.Scheduled)
}

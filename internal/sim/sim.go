// Package sim is a deterministic discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a pending-event structure
// ordered by (time, sequence): two events scheduled for the same
// instant fire in scheduling order, which keeps every experiment
// bit-for-bit reproducible for a given seed.
//
// # Scheduling
//
// AtTimer / AfterTimer schedule a Timer — any value with a
// Fire(now units.Time) method — and return a Handle. A component keeps
// one long-lived Timer value (typically a pointer-conversion type of
// the component itself) and re-arms it, so scheduling allocates
// nothing per event; periodic work is a Timer that re-arms itself from
// Fire. Events themselves are pooled: once fired or cancelled an event
// is recycled. Handles are generation-checked, so a stale
// Handle held after its event fired is inert — Cancel on it is a
// no-op and Active reports false — never a corruption of whichever
// event happens to be reusing the same slot.
//
// # Internal structure
//
// Pending events live in a calendar queue: a window of equal-width
// time buckets covering the near future, with a binary-heap overflow
// for events beyond the window. Dequeue cost is O(1) amortized for
// the dense near-future traffic a packet simulation generates, while
// far-future events (a clip's whole frame schedule, multi-second
// timeouts) wait in the heap and migrate into buckets as the window
// advances. The bucket width is self-tuning: the simulator tracks the
// observed event density and re-derives the width at window rebases
// (see adaptive.go), unless a width was pinned at construction.
// Selection is always by the unique (time, seq) key, so the firing
// order is exactly the order a single global heap would produce — the
// structure, including its width, is a performance choice, never a
// semantic one.
//
// A bucket is an intrusive chain: the lattice holds one head pointer
// per bucket and every event carries its successor, so filing an event
// is a prepend and no bucket owns storage that could grow. Singly
// linked is enough because the only event ever removed by position is
// the located minimum, and the scan that locates it remembers its
// predecessor. Cancel stays lazy for the same reason — unlinking an
// arbitrary event would need a chain walk or a second link per event —
// so a cancelled event keeps its place until the next scan of its
// bucket (or a heap pop, or a compaction) unlinks and recycles it. The
// free list of recycled events runs through the same link field.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Timer is the scheduling interface: Fire runs at the scheduled
// instant with the simulator clock already advanced to it.
// Components implement Fire on cheap pointer-conversion types (e.g.
// `type txDoneTimer Link`) so one long-lived interface value serves
// every scheduling of that callback.
type Timer interface {
	Fire(now units.Time)
}

// event is one pending callback. Events are owned and recycled by the
// Simulator; user code only ever holds Handles.
type event struct {
	when      units.Time
	at        units.Time // the clock when it was scheduled
	seq       uint64
	timer     Timer
	next      *event // successor in a bucket chain or on the free list
	gen       uint32
	cancelled bool
	inHeap    bool // currently resident in the overflow heap
	sim       *Simulator
}

// release clears an event's payload and returns it to the free list.
// Bumping the generation invalidates every Handle pointing at it.
func (s *Simulator) release(e *event) {
	if e.cancelled {
		s.qPurged++
	}
	e.gen++
	e.timer = nil
	e.cancelled = false
	e.inHeap = false
	e.next = s.free
	s.free = e
}

// Handle identifies a scheduled event. The zero Handle is valid and
// inactive. Handles are generation-checked: once the event fires or
// is cancelled, the handle goes stale and every method is a no-op.
type Handle struct {
	e   *event
	gen uint32
}

// Active reports whether the event is still pending: not yet fired
// and not cancelled.
func (h Handle) Active() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.cancelled
}

// Cancel prevents a pending event from firing. The Timer is released
// immediately — a cancelled event pins nothing until its
// timestamp — and Pending() drops at once. Safe to call any number of
// times, on the zero Handle, and after the event has fired (all
// no-ops).
func (h Handle) Cancel() {
	e := h.e
	if e == nil || e.gen != h.gen || e.cancelled {
		return
	}
	e.cancelled = true
	e.timer = nil
	e.sim.live--
	if e.inHeap {
		// Dead weight in the overflow heap; once enough accumulates the
		// next window rebase compacts it away (see compactOverflow).
		e.sim.heapDead++
	}
	// Cancelling anything other than the cached minimum cannot change
	// the minimum, so the peek cache survives.
	if e.sim.cachedMin == e {
		e.sim.cachedMin = nil
	}
}

// numBuckets is the calendar window size at the default width. 256
// buckets of the default width cover 64 ms — a few frame intervals of
// a streaming experiment — which keeps per-bucket occupancy near one
// for packet-rate traffic. Narrower widths get proportionally more
// buckets (see bucketCount) so the window — and with it the share of
// events that bypass the overflow heap — does not shrink with the
// granularity.
const numBuckets = 256

// maxBuckets caps the lattice growth for very narrow widths: 2^17
// chain heads are 1 MB, and below ~500 ns granularity the window
// already spans tens of milliseconds.
const maxBuckets = 1 << 17

// bucketCount picks the lattice size for a width: enough buckets to
// keep the window at numBuckets × defaultBucketWidth, rounded up to a
// power of two, within [numBuckets, maxBuckets].
func bucketCount(width units.Time) int {
	span := units.Time(numBuckets) * defaultBucketWidth
	n := numBuckets
	for n < maxBuckets && units.Time(n)*width < span {
		n <<= 1
	}
	return n
}

// defaultBucketWidth is the default calendar bucket granularity.
// BenchmarkCalendarBucketWidth (window_test.go) sweeps widths around
// this value over dense, sparse and bimodal schedules; 250 µs sits on
// the flat part of all three curves.
const defaultBucketWidth = 250 * units.Microsecond

// Simulator owns the event structures, the virtual clock, and the
// run's random number source. The zero value is not usable; call New.
type Simulator struct {
	now units.Time
	seq uint64
	rng *RNG

	// Calendar window: buckets[i] holds events with
	// when < base + (i+1)*bucketWidth (an event may sit in an earlier
	// bucket than its natural one, never a later one). Events at or
	// beyond the window end wait in the overflow heap.
	buckets  []*event   // chain heads; len is bucketCount(width), re-derived on width moves
	width    units.Time // bucket granularity (adaptive unless pinned at construction)
	base     units.Time
	cur      int // lowest possibly non-empty bucket
	nBuckets int // events physically present in buckets
	overflow []*event
	heapDead int // cancelled events still resident in the overflow heap

	// Density-adaptive width policy state (see adaptive.go). The
	// counters are streaming telemetry; decideFired/decideTime and
	// lastDir drive the hysteretic width decision at window rebases.
	adaptive     bool       // false when the width was pinned at construction
	decideFired  uint64     // s.fired at the last width decision
	decideTime   units.Time // window base at the last width decision
	lastDir      int8       // direction of the previous decision's pressure
	qScheduled   uint64     // events ever scheduled
	qOverflowed  uint64     // schedules that landed in the overflow heap
	qRebases     uint64     // window rebases
	qWidthMoves  uint64     // adaptive width transitions
	qCompactions uint64     // overflow-heap compactions
	qPurged      uint64     // cancelled events reclaimed before firing

	// min() caches the located minimum, with its chain predecessor
	// (nil when it heads its bucket), so the Run loop's peek-then-pop
	// costs one scan, not two, and the pop unlinks in O(1). The minimum
	// always lives in a bucket: the window-advance path migrates at
	// least the overflow top into the window before returning.
	cachedMin    *event
	cachedPrev   *event
	cachedBucket int

	live   int     // pending, non-cancelled events (Pending)
	free   *event  // recycled events, chained through next
	cold   []event // the rest of the newest chunk, never yet scheduled
	fired  uint64
	maxT   units.Time // horizon; 0 means none
	halted bool

	firingAt units.Time // the instant the event now firing was scheduled at
}

// New returns a simulator whose random source is seeded with seed.
// The calendar width starts at defaultBucketWidth and adapts to the
// observed event density (see adaptive.go).
func New(seed uint64) *Simulator {
	return NewWithBucketWidth(seed, 0)
}

// NewWithBucketWidth is New with an explicit calendar bucket
// granularity. Bucket width is a performance knob, never a semantic
// one: selection is always by the unique (time, seq) key, so two
// simulators differing only in width fire the same events in the same
// order. A positive width pins the calendar geometry and disables
// adaptation; non-positive widths start at the default and let the
// density-adaptive policy re-derive the width at window rebases. No
// production build pins: this is the seam the width-invariance tests
// and the engine-level width benchmark drive the queue through.
func NewWithBucketWidth(seed uint64, width units.Time) *Simulator {
	adaptive := width <= 0
	if adaptive {
		width = defaultBucketWidth
	}
	return &Simulator{rng: NewRNG(seed), width: width, adaptive: adaptive,
		buckets: make([]*event, bucketCount(width))}
}

// Reset puts s back in the state the constructor that made it builds
// for seed — New(seed), or NewWithBucketWidth(seed, w) for a pinned
// width — while keeping every allocation: the clock, sequence, counters,
// adaptive-width state, lattice length and horizon are restored and the
// RNG is reseeded in place. Every pending event is reclaimed onto the
// free list with its generation bumped, so a Handle taken before Reset
// is inert, and its Timer dropped, so nothing of the previous run stays
// reachable from s. The lattice, the overflow heap and the event pool
// keep their capacity. This is how a runner worker runs job after job on
// one simulator; Reset must not be called from inside an event.
func (s *Simulator) Reset(seed uint64) {
	for _, head := range s.buckets {
		for e := head; e != nil; {
			next := e.next
			s.release(e)
			e = next
		}
	}
	for _, e := range s.overflow {
		s.release(e)
	}
	clear(s.buckets[:cap(s.buckets)])
	clear(s.overflow)
	width := s.width
	if s.adaptive {
		width = defaultBucketWidth
	}
	*s = Simulator{rng: s.rng, width: width, adaptive: s.adaptive,
		buckets: s.buckets[:bucketCount(width)], overflow: s.overflow[:0],
		free: s.free, cold: s.cold}
	s.rng.seed(seed)
}

// Now reports the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// ScheduledAt reports the instant at which the event now firing (or,
// between events, the last one fired) was scheduled. Events that share
// a firing time fire in the order of these instants, and of scheduling
// within one instant, which is how a component that computes some of
// its events rather than scheduling them orders them against the
// calendar's (see package link).
func (s *Simulator) ScheduledAt() units.Time { return s.firingAt }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many live events remain scheduled. Cancelled
// events stop counting at Cancel time even though their slots are
// reclaimed lazily.
func (s *Simulator) Pending() int { return s.live }

// eventChunk is how many events a cold start allocates at once: the
// event pool warms up to the run's pending high-water mark one schedule
// at a time, which cost one heap object per event. A Reset simulator
// keeps its warmed pool, so a runner worker pays the warm-up once, and
// a cold one pays it 64 events (4 KB) to an allocation.
const eventChunk = 64

// alloc takes an event from the free list (or, on a cold start, the
// next of a freshly allocated chunk) and initializes it for scheduling
// at t.
func (s *Simulator) alloc(t units.Time) *event {
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
	} else {
		if len(s.cold) == 0 {
			s.cold = make([]event, eventChunk)
		}
		e = &s.cold[0]
		s.cold = s.cold[1:]
		e.sim = s
	}
	e.when = t
	e.at = s.now
	e.seq = s.seq
	s.seq++
	return e
}

// schedule inserts e into the calendar window or the overflow heap.
func (s *Simulator) schedule(e *event) {
	s.live++
	s.cachedMin = nil
	s.qScheduled++
	end := s.base + units.Time(len(s.buckets))*s.width
	if e.when >= end {
		s.qOverflowed++
		s.heapPush(e)
		return
	}
	i := 0
	if e.when > s.base {
		i = int((e.when - s.base) / s.width)
	}
	if i < s.cur {
		s.cur = i
	}
	e.next = s.buckets[i]
	s.buckets[i] = e
	s.nBuckets++
}

// AtTimer schedules tm.Fire at absolute simulated time t without
// allocating. Scheduling in the past panics: that is always a logic
// error in a discrete-event model and silently reordering time would
// corrupt the run.
func (s *Simulator) AtTimer(t units.Time, tm Timer) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc(t)
	e.timer = tm
	s.schedule(e)
	return Handle{e: e, gen: e.gen}
}

// AfterTimer schedules tm.Fire d from now without allocating.
func (s *Simulator) AfterTimer(d units.Time, tm Timer) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtTimer(s.now+d, tm)
}

// min locates (and caches) the earliest pending event, lazily purging
// cancelled events it passes over. Returns nil when nothing is
// pending.
func (s *Simulator) min() *event {
	if s.cachedMin != nil {
		return s.cachedMin
	}
	for {
		// Scan the window from the cursor — but only when something is
		// physically in it, so draining the queue does not walk every
		// empty bucket.
		for b := s.cur; s.nBuckets > 0 && b < len(s.buckets); b++ {
			// prev trails the walk over live events only, so bestPrev
			// stays linked to best however many cancelled events are
			// unlinked around them.
			var best, bestPrev, prev *event
			for e := s.buckets[b]; e != nil; {
				next := e.next
				if e.cancelled {
					// Unlink and recycle; selection is by the unique
					// (when, seq) key, so chain order within a bucket
					// is irrelevant.
					if prev == nil {
						s.buckets[b] = next
					} else {
						prev.next = next
					}
					s.nBuckets--
					s.release(e)
				} else {
					if best == nil || e.when < best.when || (e.when == best.when && e.seq < best.seq) {
						best, bestPrev = e, prev
					}
					prev = e
				}
				e = next
			}
			if best != nil {
				s.cur = b
				s.cachedMin, s.cachedPrev, s.cachedBucket = best, bestPrev, b
				return best
			}
			s.cur = b + 1
		}
		// Window exhausted: purge cancelled overflow tops, then either
		// finish (empty) or rebase the window onto the overflow minimum.
		for len(s.overflow) > 0 && s.overflow[0].cancelled {
			s.release(s.heapPop())
		}
		if len(s.overflow) == 0 {
			return nil
		}
		s.rebase()
	}
}

// rebase advances the calendar window to the overflow minimum and
// migrates everything that fits into buckets. The lattice is provably
// empty here (the min scan drained or purged every bucket), which
// makes this the one point where geometry may change: the heap is
// compacted if cancellations dominate it, and — unless the width was
// pinned at construction — the adaptive policy re-derives the bucket
// width from the density observed since the last decision.
func (s *Simulator) rebase() {
	s.qRebases++
	if s.heapDead >= compactMinDead && s.heapDead*4 >= len(s.overflow) {
		s.compactOverflow()
	}
	if s.adaptive {
		s.adaptWidth(s.overflow[0].when)
	}
	s.base = s.overflow[0].when
	s.cur = 0
	end := s.base + units.Time(len(s.buckets))*s.width
	for len(s.overflow) > 0 && s.overflow[0].when < end {
		e := s.heapPop()
		if e.cancelled {
			s.release(e)
			continue
		}
		i := int((e.when - s.base) / s.width)
		e.next = s.buckets[i]
		s.buckets[i] = e
		s.nBuckets++
	}
}

// popMin removes the event min() located (always bucket-resident —
// see the cachedMin field comment).
func (s *Simulator) popMin() *event {
	e := s.min()
	if e == nil {
		return nil
	}
	if s.cachedPrev == nil {
		s.buckets[s.cachedBucket] = e.next
	} else {
		s.cachedPrev.next = e.next
	}
	s.nBuckets--
	s.cachedMin = nil
	s.live--
	return e
}

// SetHorizon makes Run stop once the clock would pass t. Zero removes
// the horizon.
func (s *Simulator) SetHorizon(t units.Time) { s.maxT = t }

// Run executes events until none remain pending, the horizon passes,
// or Halt is called. It returns the final simulated time.
func (s *Simulator) Run() units.Time {
	s.halted = false
	for !s.halted {
		e := s.min()
		if e == nil {
			break
		}
		// Peek: an event beyond the horizon must stay queued so a
		// later Run/RunUntil can still execute it.
		if s.maxT > 0 && e.when > s.maxT {
			if s.now < s.maxT {
				s.now = s.maxT
			}
			return s.now
		}
		s.popMin()
		s.now = e.when
		s.firingAt = e.at
		s.fired++
		tm := e.timer
		// Recycle before firing so a periodic Timer's re-schedule
		// reuses this very event — the steady state allocates nothing.
		s.release(e)
		tm.Fire(s.now)
	}
	return s.now
}

// RunUntil executes events with a horizon of t, then restores the
// previous horizon.
func (s *Simulator) RunUntil(t units.Time) units.Time {
	old := s.maxT
	s.maxT = t
	defer func() { s.maxT = old }()
	return s.Run()
}

// RunBefore executes every pending event scheduled strictly before t
// and stops, leaving events at or after t queued and the clock on the
// last fired event (never advanced to t itself — AdvanceTo does
// that). It ignores the horizon: the caller's bound is t. This is the
// window primitive of the sharded execution mode: a shard drains its
// private calendar one conservative-lookahead window at a time, and
// the border simulator catches up to just before each injected
// emission so the injection lands in exact (time, seq) order relative
// to the border's own events.
func (s *Simulator) RunBefore(t units.Time) units.Time {
	s.halted = false
	for !s.halted {
		e := s.min()
		if e == nil || e.when >= t {
			break
		}
		s.popMin()
		s.now = e.when
		s.firingAt = e.at
		s.fired++
		tm := e.timer
		s.release(e)
		tm.Fire(s.now)
	}
	return s.now
}

// AdvanceTo moves the clock forward to t without firing anything.
// Advancing over a pending event panics — that would reorder time —
// so callers drain with RunBefore(t) first. Advancing to the past is
// a no-op for t == now and a panic below it, matching the scheduling
// guard.
func (s *Simulator) AdvanceTo(t units.Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	if e := s.min(); e != nil && e.when < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, e.when))
	}
	s.now = t
}

// --- overflow heap (min by (when, seq)) ---
//
// Hand-rolled rather than container/heap to avoid the interface
// boxing on every push/pop of the hot path.

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (s *Simulator) heapPush(e *event) {
	e.inHeap = true
	s.overflow = append(s.overflow, e)
	i := len(s.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s.overflow[i], s.overflow[parent]) {
			break
		}
		s.overflow[i], s.overflow[parent] = s.overflow[parent], s.overflow[i]
		i = parent
	}
}

func (s *Simulator) heapPop() *event {
	h := s.overflow
	top := h[0]
	top.inHeap = false
	if top.cancelled {
		s.heapDead--
	}
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	s.overflow = h[:last]
	s.siftDown(0)
	return top
}

func (s *Simulator) siftDown(i int) {
	h := s.overflow
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && eventLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

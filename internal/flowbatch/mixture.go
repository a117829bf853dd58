package flowbatch

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/units"
)

// The batched video source: K cached schedules, each fanned out as its
// own phase-offset virtual-flow population, interleaved in one global
// (time, flow) order. The interleaving is what makes a mixture exact:
// the jitter draws of every class come from the simulator's root RNG in
// the identical sequence N real per-flow jitter elements would consume,
// which K independent sources — each walking its own arrivals —
// could not reproduce.

// TruncateSchedule returns the prefix of sched strictly before cutoff
// (emission offsets, not absolute times). The entries share sched's
// backing array, so truncation costs one header and a byte recount —
// fleet sweeps clip long schedules per grid point without recomputing
// or duplicating the cached plan. A cutoff <= 0 returns sched.
func TruncateSchedule(sched *Schedule, cutoff units.Time) *Schedule {
	if sched == nil || cutoff <= 0 {
		return sched
	}
	n := 0
	var bytes int64
	for i := range sched.Entries {
		if sched.Entries[i].At >= cutoff {
			break
		}
		bytes += int64(sched.Entries[i].Size)
		n = i + 1
	}
	if n == len(sched.Entries) {
		return sched
	}
	return &Schedule{Entries: sched.Entries[:n], Bytes: bytes}
}

// MixtureClass is one equivalence class of a BatchedMixture: a shared
// emission schedule fanned out as N virtual flows with their own
// folded chain parameters and start lattice. Flow j of the class
// starts at mixture start + Phase + j*Offset.
type MixtureClass struct {
	Sched  *Schedule
	N      int
	Phase  units.Time // class start offset from the mixture's start
	Offset units.Time // start stagger between consecutive flows of the class
	Chain  ChainSpec
}

// ClassBounds is a class-major flow layout kept in O(classes) state:
// class ci owns flow indices [b[ci], b[ci+1]), so b[0] is 0 and the
// last bound is the population. A flow's class is a search over the
// bounds where a per-flow class table would keep 4 B a flow; the
// batched mixture and the topology's per-class receive demux both look
// classes up this way.
type ClassBounds []int32

// ClassLayout returns the bounds of classes laid out class-major. The
// bounds are made with room for 16, so a small layout owns its cache
// line: every stage of the sharded pipeline reads it per record, and
// unpadded it cost the bare two-shard fleet pipeline about 4 % of its
// CPU (docs/measurements/pr49.md).
func ClassLayout(classes []MixtureClass) ClassBounds {
	b := make(ClassBounds, len(classes)+1, max(len(classes)+1, 16))
	for ci := range classes {
		b[ci+1] = b[ci] + int32(classes[ci].N)
	}
	return b
}

// Flows returns the population.
func (b ClassBounds) Flows() int32 { return b[len(b)-1] }

// Of returns the class owning flow index g, 0 ≤ g < Flows(): the count
// of classes that end at or before it, so an empty class owns none. The
// scan compiles branch-free, and over the handful of classes a mixture
// has it beats a binary search, whose branches mispredict on flows in
// random order: 4 against 7 ns at 2 classes, 10 against 30 at 16.
func (b ClassBounds) Of(g int32) int {
	ci := 0
	for _, end := range b[1 : len(b)-1] {
		if g >= end {
			ci++
		}
	}
	return ci
}

// BatchedMixture streams K class schedules as one interleaved fan-out.
// Global virtual-flow indices are class-major: class 0 owns flows
// [0, N0), class 1 owns [N0, N0+N1), and so on; flow g carries packet
// flow id BaseFlow+g and delivers into Next[0], the one next hop every
// flow shares (a fleet's is a policer bank that indexes its per-flow
// policers by flow id). The exactness contract of the package
// comment holds per class: per-flow access-link serialization is folded
// bit-exactly, and jitter is drawn from the root RNG in global
// (time, flow) arrival order across all classes.
//
// Two pre-bound Timers drive the serial walk: an arrival timer that
// reads the merged (per-flow serialized) arrival sequence window by
// window from one shard walk, drawing each packet's jitter at its
// arrival instant, and a delivery timer that hands materialized
// packets to the per-flow next hops at their jittered times.
// Steady-state emission allocates nothing: packets come from Pool, the
// window buffers and the pending heap are reused at their high-water
// marks, and the simulator recycles both timer events.
type BatchedMixture struct {
	Sim      *sim.Simulator
	Classes  []MixtureClass
	BaseFlow packet.FlowID
	Next     []packet.Handler // exactly one entry: the next hop every flow shares
	Pool     *packet.Pool

	// Tap, when set, receives one LinkDeliver event per packet as it
	// leaves the folded chain, with the virtual flow id preserved.
	Tap ptrace.Tap
	Hop ptrace.HopID

	// Sent counts each virtual flow's deliveries, indexed by global
	// flow: the flow's next delivery plays entry Sent[g] of its class
	// schedule. 32 bits, as flow counts and schedule lengths are.
	Sent []int32

	// Shared by both run modes; init lays them out. A flow's class and
	// start are derived, not stored (locate), so a flow keeps 12 B: Sent
	// and its jitter clamp.
	bounds       ClassBounds
	t0           units.Time     // the mixture's start: flow j of class c starts at t0 + c.Phase + j·c.Offset
	base         [][]units.Time // class -> arrival walk of a flow started at 0 (baseArrivals)
	lastDelivery []units.Time   // global flow -> the jitter clamp
	// rng is Sim.RNG(), read once: the sharded pipeline draws on the
	// sequencer's goroutine, and the pointer shares a cache line with
	// the clock the border simulator writes on every event (reading it
	// per draw cost the two-shard fleet ~10 % of its wall time).
	rng *sim.RNG

	// The serial walk's own state; startArmed lays it out. Arrivals
	// come from one shard walk that owns every flow: arrivals.out holds
	// the sorted lookahead window that starts at window, and
	// arrivals.out[next] is the next arrival to draw.
	arrivals shardArrivals
	window   units.Time
	next     int
	pending  deliveryHeap

	// perPacket selects the delivery-timer arming rule (see
	// armPerPacketMax). Under the single-timer rule delArmed is the
	// earliest instant a delivery timer is armed for (-1: none) and
	// delTimer its handle; when a new jitter draw undercuts the armed
	// instant the stale timer is cancelled, not abandoned: abandoned
	// timers re-arm on every no-op fire and accumulate without bound.
	perPacket bool
	delArmed  units.Time
	delTimer  sim.Handle

	arrive  sim.Timer
	deliver sim.Timer
}

// armPerPacketMax is the largest population whose deliveries are armed
// one simulator timer per packet, at the instant the packet's jitter is
// drawn. That timer takes the scheduling sequence number a real
// link.Jitter's delivery event would take, so same-nanosecond ties
// against native border events resolve exactly as in the unbatched
// build, and it keeps only ≈ rate × jitter resident events (≈ 40 at 320
// flows). Above it one timer rides the pending heap's root: the heap
// already orders every pending packet, and per-packet arming
// would keep ≈ 2,000 resident calendar events at 16k flows whose only
// effect is lengthening every bucket scan in the hot loop. The two
// rules emit the identical sequence into a sink but break topology ties
// differently, and the benchmark goldens pin one each: `wide-batched`
// (320 flows) sits below the boundary, `fleet-mix` (16,000) above it.
const armPerPacketMax = 1024

// deliveryHeap is the serial walk's drawn-but-undelivered
// deliveries, a binary min-heap ordered by (at, flow): the order the
// pipeline releases them in. A flow's delivery instants are
// non-decreasing in draw order (the jitter clamp), so the least pending
// pair is always the least of the flows' oldest pending deliveries,
// and two pairs of one (at, flow) need no order between them: inject
// plays entry Sent[g] whichever is popped first.
type deliveryHeap []pendingDelivery

func (d pendingDelivery) before(e pendingDelivery) bool {
	return d.at < e.at || d.at == e.at && d.flow < e.flow
}

func (h *deliveryHeap) push(d pendingDelivery) {
	*h = append(*h, d)
	h.up(len(*h)-1, d)
}

// pop removes and returns the least delivery; the heap must be
// non-empty. The hole the root leaves walks down the lesser children
// to a leaf, and the last entry, which belongs near the bottom, sifts
// up from there: one comparison per level instead of two.
func (h *deliveryHeap) pop() pendingDelivery {
	q := *h
	top, last := q[0], len(q)-1
	d := q[last]
	q = q[:last]
	*h = q
	if last == 0 {
		return top
	}
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && q[c+1].before(q[c]) {
			c++
		}
		q[i] = q[c]
		i = c
	}
	h.up(i, d)
	return top
}

// up places d in the hole at i, moving the hole's ancestors that d
// precedes down a level.
func (h deliveryHeap) up(i int, d pendingDelivery) {
	for i > 0 {
		p := (i - 1) / 2
		if !d.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = d
}

// mixArriveTimer and mixDeliverTimer give the mixture two Fire methods
// without per-schedule closures (the link.Link pattern).
type (
	mixArriveTimer  BatchedMixture
	mixDeliverTimer BatchedMixture
)

// Fire advances the merged arrival sequence.
func (t *mixArriveTimer) Fire(now units.Time) { (*BatchedMixture)(t).processArrivals(now) }

// Fire hands due packets to their virtual flows' next hops.
func (t *mixDeliverTimer) Fire(now units.Time) { (*BatchedMixture)(t).deliverDue(now) }

// TotalFlows sums the class populations.
func (s *BatchedMixture) TotalFlows() int {
	n := 0
	for _, c := range s.Classes {
		n += c.N
	}
	return n
}

// init lays out the state both run modes share, in class-major flow
// order: the counters, the class bounds, each class's base arrivals
// and the per-flow jitter state.
func (s *BatchedMixture) init() int {
	n := s.TotalFlows()
	if len(s.Next) != 1 {
		panic(fmt.Sprintf("flowbatch: %d next hops for a mixture (want 1)", len(s.Next)))
	}
	s.Sent = make([]int32, n)
	s.bounds = ClassLayout(s.Classes)
	s.t0 = s.Sim.Now()
	s.base = make([][]units.Time, len(s.Classes))
	for ci := range s.Classes {
		s.base[ci] = baseArrivals(s.Classes[ci].Sched, s.Classes[ci].Chain)
	}
	s.lastDelivery = make([]units.Time, n)
	s.rng = s.Sim.RNG()
	return n
}

// locate returns global flow g's class and start instant.
func (s *BatchedMixture) locate(g int32) (int, units.Time) {
	ci := s.bounds.Of(g)
	c := &s.Classes[ci]
	return ci, s.t0 + c.Phase + units.Time(int64(g-s.bounds[ci]))*c.Offset
}

// records is the one sizing rule of every buffer both run modes keep:
// about the most records an interval of d carries across the whole
// fan-out, the mixture's scheduled packets spread over its full span
// at twice their mean density, and never more than the run's total. A
// buffer is made at that size once and grows past it only when one
// window runs over it.
func (s *BatchedMixture) records(d units.Time) int {
	var events int64
	var span units.Time
	for ci := range s.Classes {
		c := &s.Classes[ci]
		if c.N == 0 || len(c.Sched.Entries) == 0 {
			continue
		}
		events += int64(c.N) * int64(len(c.Sched.Entries))
		span = max(span, c.Phase+units.Time(int64(c.N-1))*c.Offset+c.Sched.Entries[len(c.Sched.Entries)-1].At)
	}
	if span <= 0 {
		return 0
	}
	return int(min(2*float64(events)/float64(span)*float64(d), float64(events)))
}

// Start schedules the interleaved fan-out. Each flow's first packet
// follows the same chain timing a freshly started server.Paced would
// produce.
func (s *BatchedMixture) Start() { s.startArmed(s.TotalFlows() <= armPerPacketMax) }

// startArmed is Start under an explicit arming rule.
func (s *BatchedMixture) startArmed(perPacket bool) {
	if s.TotalFlows() <= 0 {
		return
	}
	n := s.init()
	s.perPacket = perPacket
	s.delArmed = -1
	s.arrive = (*mixArriveTimer)(s)
	s.deliver = (*mixDeliverTimer)(s)
	w := s.lookahead()
	s.arrivals = shardArrivals{mix: s, stride: 1, packing: newPacking(w, n), size: s.records(w)}
	s.arrivals.init()
	s.window, s.next = s.Sim.Now()-w, 0
	// The heap holds the deliveries drawn within about one jitter bound.
	var jitter units.Time
	for ci := range s.Classes {
		jitter = max(jitter, s.Classes[ci].Chain.JitterMax)
	}
	s.pending = make(deliveryHeap, 0, s.records(jitter))
	if a, _, ok := s.nextArrival(); ok {
		s.Sim.AtTimer(a, s.arrive)
	}
}

// baseArrivals walks one virtual flow's access-chain serialization,
// started at 0, over the whole schedule and returns the arrival instant
// of every entry: serialization starts at the emission instant or when
// the link frees up, whichever is later — exactly a dedicated
// link.Link's FIFO. Per-flow arrival times strictly increase
// (serialization time is positive), and the recurrence is
// shift-invariant, max(a+c, b+c) = max(a, b)+c, so a flow started at s
// arrives at s + base[k]. Both run modes read every arrival that way.
func baseArrivals(sched *Schedule, chain ChainSpec) []units.Time {
	if sched == nil {
		return nil
	}
	base := make([]units.Time, len(sched.Entries))
	var busy units.Time
	for k := range sched.Entries {
		e := &sched.Entries[k]
		tx := e.At
		if busy > tx {
			tx = busy
		}
		busy = tx + chain.AccessRate.TxTime(e.Size)
		base[k] = busy + chain.AccessDelay
	}
	return base
}

// draw takes the jitter of flow g's packet arriving at a and returns
// its delivery instant — the one jitter draw of both run modes:
// link.Jitter.Handle's uniform draw from the root RNG plus its
// order-preserving clamp, with the element's state held per virtual
// flow. The clamp makes a flow's delivery instants non-decreasing in
// draw order, and every entry is drawn once, so a flow's k-th delivery
// carries its k-th entry: inject reads it from Sent[g] in both modes.
func (s *BatchedMixture) draw(g int32, a units.Time) units.Time {
	t := a
	if jm := s.Classes[s.bounds.Of(g)].Chain.JitterMax; jm > 0 {
		t = a + units.Time(s.rng.Float64()*float64(jm))
	}
	if t < s.lastDelivery[g] {
		t = s.lastDelivery[g]
	}
	s.lastDelivery[g] = t
	return t
}

// nextArrival returns the earliest arrival not yet drawn, walking the
// next lookahead window when the current one is used up; ok is false
// once every flow's schedule is exhausted.
func (s *BatchedMixture) nextArrival() (at units.Time, g uint32, ok bool) {
	sa := &s.arrivals
	for s.next == len(sa.out) {
		if sa.done() {
			return 0, 0, false
		}
		sa.out, s.next = sa.out[:0], 0
		s.window += sa.w
		sa.advanceTo(s.window + sa.w)
	}
	at, g = sa.unpack(sa.out[s.next], s.window)
	return at, g, true
}

// processArrivals draws jitter for every packet arriving now, in
// global (time, flow) order across all classes — the same root-RNG
// consumption order N real jitter elements would produce — and
// schedules each packet's delivery at its jittered instant.
func (s *BatchedMixture) processArrivals(now units.Time) {
	a, g, ok := s.nextArrival()
	for ok && a <= now {
		t := s.draw(int32(g), a)
		s.pending.push(pendingDelivery{at: t, flow: g})
		if s.perPacket {
			s.Sim.AtTimer(t, s.deliver)
		}
		s.next++
		a, g, ok = s.nextArrival()
	}
	s.armDeliver()
	if ok {
		s.Sim.AtTimer(a, s.arrive)
	}
}

// armDeliver, under the single-timer rule, keeps exactly one delivery
// timer armed at the heap's least delivery, cancelling the previous one
// when that moved earlier (the handle of a timer that already fired is
// stale, so Cancel is a no-op in the common re-arm-after-fire case).
// Under per-packet arming every pending delivery already has its timer.
func (s *BatchedMixture) armDeliver() {
	if s.perPacket || len(s.pending) == 0 {
		return
	}
	if t := s.pending[0].at; s.delArmed < 0 || t < s.delArmed {
		s.delTimer.Cancel()
		s.delTimer = s.Sim.AtTimer(t, s.deliver)
		s.delArmed = t
	}
}

// deliverDue materializes and forwards every packet whose jittered
// delivery instant is now, in (time, flow) order.
func (s *BatchedMixture) deliverDue(now units.Time) {
	s.delArmed = -1
	for len(s.pending) > 0 && s.pending[0].at <= now {
		s.inject(int32(s.pending.pop().flow))
	}
	s.armDeliver()
}

// inject materializes global flow g's next delivery, entry Sent[g] of
// its class schedule, at the current clock and forwards it to the
// flow's next hop — the body of the serial delivery loop, and the whole
// of the sharded border replay, whose caller must have advanced the
// border simulator to the delivery instant so packet ids, taps and
// downstream elements observe the serial timeline.
func (s *BatchedMixture) inject(g int32) {
	ci, start := s.locate(g)
	e := &s.Classes[ci].Sched.Entries[s.Sent[g]]
	p := s.Pool.Get()
	p.Flow = s.BaseFlow + packet.FlowID(g)
	p.Proto = packet.UDP
	p.Size = e.Size
	p.FrameSeq, p.FragIndex, p.FragCount = int(e.FrameSeq), int(e.FragIndex), int(e.FragCount)
	p.SentAt = start + e.At
	s.Sent[g]++
	if s.Tap != nil {
		s.Tap.Emit(ptrace.Event{
			Kind: ptrace.LinkDeliver, Hop: s.Hop, Flow: p.Flow, PktID: p.ID,
			Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: e.FrameSeq,
		})
	}
	s.Next[0].Handle(p)
}

// TotalSent sums the per-virtual-flow emission counters.
func (s *BatchedMixture) TotalSent() int {
	total := 0
	for _, n := range s.Sent {
		total += int(n)
	}
	return total
}

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
// which K independent sources — each walking its own arrival wheel —
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

// BatchedMixture streams K class schedules as one interleaved fan-out.
// Global virtual-flow indices are class-major: class 0 owns flows
// [0, N0), class 1 owns [N0, N0+N1), and so on; flow g carries packet
// flow id BaseFlow+g and delivers into Next[g] (or Next[0] when one
// shared next hop is given). The exactness contract of the package
// comment holds per class: per-flow access-link serialization is folded
// bit-exactly, and jitter is drawn from the root RNG in global
// (time, flow) arrival order across all classes.
//
// Two pre-bound Timers drive the whole fan-out: an arrival timer that
// walks the merged (per-flow serialized) arrival sequence, drawing
// each packet's jitter at its arrival instant, and a delivery timer
// that hands materialized packets to the per-flow next hops at their
// jittered times. Steady-state emission allocates nothing: packets
// come from Pool, the wheels are chains over fixed arrays, pending
// timestamps recycle the nodes of one shared slab, and the simulator
// recycles both timer events.
type BatchedMixture struct {
	Sim      *sim.Simulator
	Classes  []MixtureClass
	BaseFlow packet.FlowID
	Next     []packet.Handler // per-global-flow next hop; a single entry is shared
	Pool     *packet.Pool

	// Tap, when set, receives one LinkDeliver event per packet as it
	// leaves the folded chain, with the virtual flow id preserved.
	Tap ptrace.Tap
	Hop ptrace.HopID

	// Per-virtual-flow emission counters (delivery-ordered), indexed by
	// global flow.
	Sent      []int
	SentBytes []int64

	// Shared by both run modes; init lays them out.
	classOf      []int32        // global flow -> class index
	start        []units.Time   // global flow -> start instant
	base         [][]units.Time // class -> arrival walk of a flow started at 0 (baseArrivals)
	lastDelivery []units.Time   // global flow -> the jitter clamp
	// rng is Sim.RNG(), read once: the sharded pipeline draws on the
	// sequencer's goroutine, and the pointer shares a cache line with
	// the clock the border simulator writes on every event (reading it
	// per draw cost the two-shard fleet ~10 % of its wall time).
	rng *sim.RNG

	// The serial walk's own state; startArmed lays it out.
	drawn   []int32 // global flow -> jitter draws taken, the next entry to arrive
	nextArr []units.Time
	nextDel []units.Time
	pending timeFIFOs

	arrWheel flowWheel
	delWheel flowWheel

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
// flows). Above it one timer rides the delivery wheel's minimum: the
// wheel already orders every pending packet, and per-packet arming
// would keep ≈ 2,000 resident calendar events at 16k flows whose only
// effect is lengthening every bucket scan in the hot loop. The two
// rules emit the identical sequence into a sink but break topology ties
// differently, and the benchmark goldens pin one each: `wide-batched`
// (320 flows) sits below the boundary, `fleet-mix` (16,000) above it.
const armPerPacketMax = 1024

// timeFIFOs holds one FIFO of timestamps per virtual flow — the
// drawn-but-undelivered jitter delivery times — as chains through a
// single slab of nodes. Popped nodes go on a free chain and are reused
// before the slab grows, so its length is the high-water mark of
// simultaneously pending deliveries across all flows (≈ rate × jitter),
// not a per-flow allocation, and steady-state push/pop never allocates.
type timeFIFOs struct {
	ends  []fifoEnds // per flow
	nodes []timeNode
	free  int32 // head of the recycled-node chain; -1 when none
}

// fifoEnds is one flow's oldest and newest node; head is -1 when the
// flow has nothing pending (tail is then meaningless).
type fifoEnds struct{ head, tail int32 }

type timeNode struct {
	t    units.Time
	next int32 // following node of the same FIFO, or of the free chain
}

func newTimeFIFOs(flows int) timeFIFOs {
	ends := make([]fifoEnds, flows)
	for i := range ends {
		ends[i].head = -1
	}
	return timeFIFOs{ends: ends, free: -1}
}

func (f *timeFIFOs) empty(g int32) bool { return f.ends[g].head < 0 }

func (f *timeFIFOs) peek(g int32) units.Time { return f.nodes[f.ends[g].head].t }

func (f *timeFIFOs) push(g int32, t units.Time) {
	i := f.free
	if i >= 0 {
		f.free = f.nodes[i].next
		f.nodes[i] = timeNode{t: t, next: -1}
	} else {
		i = int32(len(f.nodes))
		f.nodes = append(f.nodes, timeNode{t: t, next: -1})
	}
	e := &f.ends[g]
	if e.head < 0 {
		e.head = i
	} else {
		f.nodes[e.tail].next = i
	}
	e.tail = i
}

func (f *timeFIFOs) pop(g int32) units.Time {
	e := &f.ends[g]
	i := e.head
	n := &f.nodes[i]
	e.head = n.next
	n.next = f.free
	f.free = i
	return n.t
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
// order: the counters, the flow layout, each class's base arrivals and
// the per-flow jitter state.
func (s *BatchedMixture) init() int {
	n := s.TotalFlows()
	if len(s.Next) != n && len(s.Next) != 1 {
		panic(fmt.Sprintf("flowbatch: %d next hops for %d mixture flows (want N or 1)", len(s.Next), n))
	}
	s.Sent = make([]int, n)
	s.SentBytes = make([]int64, n)
	s.classOf = make([]int32, n)
	s.start = make([]units.Time, n)
	s.base = make([][]units.Time, len(s.Classes))
	s.lastDelivery = make([]units.Time, n)
	s.rng = s.Sim.RNG()
	now := s.Sim.Now()
	g := 0
	for ci := range s.Classes {
		c := &s.Classes[ci]
		s.base[ci] = baseArrivals(c.Sched, c.Chain)
		for j := 0; j < c.N; j++ {
			s.classOf[g] = int32(ci)
			s.start[g] = now + c.Phase + units.Time(int64(j))*c.Offset
			g++
		}
	}
	return n
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
	s.drawn = make([]int32, n)
	s.nextArr = make([]units.Time, n)
	s.nextDel = make([]units.Time, n)
	s.pending = newTimeFIFOs(n)
	// Size the merge wheels from the mixture's event density: total
	// scheduled packets spread over the fan-out's full span.
	var events int64
	var span units.Time
	for ci := range s.Classes {
		c := &s.Classes[ci]
		if c.N == 0 || len(c.Sched.Entries) == 0 {
			continue
		}
		events += int64(c.N) * int64(len(c.Sched.Entries))
		end := c.Phase + units.Time(int64(c.N-1))*c.Offset + c.Sched.Entries[len(c.Sched.Entries)-1].At
		if end > span {
			span = end
		}
	}
	s.arrWheel = newFlowWheel(s.nextArr, events, span)
	s.delWheel = newFlowWheel(s.nextDel, events, span)
	s.delArmed = -1
	s.arrive = (*mixArriveTimer)(s)
	s.deliver = (*mixDeliverTimer)(s)
	for g := int32(0); g < int32(n); g++ {
		if base := s.base[s.classOf[g]]; len(base) > 0 {
			s.nextArr[g] = s.start[g] + base[0]
			s.arrWheel.push(g)
		}
	}
	if s.arrWheel.len() > 0 {
		s.Sim.AtTimer(s.nextArr[s.arrWheel.min()], s.arrive)
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
	if jm := s.Classes[s.classOf[g]].Chain.JitterMax; jm > 0 {
		t = a + units.Time(s.rng.Float64()*float64(jm))
	}
	if t < s.lastDelivery[g] {
		t = s.lastDelivery[g]
	}
	s.lastDelivery[g] = t
	return t
}

// processArrivals draws jitter for every packet arriving now, in
// global (time, flow) order across all classes — the same root-RNG
// consumption order N real jitter elements would produce — and
// schedules each packet's delivery at its jittered instant.
func (s *BatchedMixture) processArrivals(now units.Time) {
	for s.arrWheel.len() > 0 {
		g := s.arrWheel.min()
		if s.nextArr[g] > now {
			break
		}
		t := s.draw(g, s.nextArr[g])
		if s.pending.empty(g) {
			s.nextDel[g] = t
			s.delWheel.push(g)
		}
		s.pending.push(g, t)
		if s.perPacket {
			s.Sim.AtTimer(t, s.deliver)
		}
		s.drawn[g]++
		if base := s.base[s.classOf[g]]; int(s.drawn[g]) < len(base) {
			s.nextArr[g] = s.start[g] + base[s.drawn[g]]
			s.arrWheel.fixMin()
		} else {
			s.arrWheel.pop()
		}
	}
	s.armDeliver()
	if s.arrWheel.len() > 0 {
		s.Sim.AtTimer(s.nextArr[s.arrWheel.min()], s.arrive)
	}
}

// armDeliver, under the single-timer rule, keeps exactly one delivery
// timer armed at the wheel's minimum, cancelling the previous one when
// the minimum moved earlier (the handle of a timer that already fired
// is stale, so Cancel is a no-op in the common re-arm-after-fire case).
// Under per-packet arming every pending delivery already has its timer.
func (s *BatchedMixture) armDeliver() {
	if s.perPacket || s.delWheel.len() == 0 {
		return
	}
	if t := s.nextDel[s.delWheel.min()]; s.delArmed < 0 || t < s.delArmed {
		s.delTimer.Cancel()
		s.delTimer = s.Sim.AtTimer(t, s.deliver)
		s.delArmed = t
	}
}

// deliverDue materializes and forwards every packet whose jittered
// delivery instant is now, in (time, flow) order.
func (s *BatchedMixture) deliverDue(now units.Time) {
	s.delArmed = -1
	for s.delWheel.len() > 0 {
		g := s.delWheel.min()
		if s.nextDel[g] > now {
			break
		}
		s.pending.pop(g)
		s.inject(g)
		if !s.pending.empty(g) {
			s.nextDel[g] = s.pending.peek(g)
			s.delWheel.fixMin()
		} else {
			s.delWheel.pop()
		}
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
	c := &s.Classes[s.classOf[g]]
	e := &c.Sched.Entries[s.Sent[g]]
	p := s.Pool.Get()
	p.Flow = s.BaseFlow + packet.FlowID(g)
	p.Proto = packet.UDP
	p.Size = e.Size
	p.FrameSeq, p.FragIndex, p.FragCount = int(e.FrameSeq), int(e.FragIndex), int(e.FragCount)
	p.SentAt = s.start[g] + e.At
	s.Sent[g]++
	s.SentBytes[g] += int64(e.Size)
	if s.Tap != nil {
		s.Tap.Emit(ptrace.Event{
			Kind: ptrace.LinkDeliver, Hop: s.Hop, Flow: p.Flow, PktID: p.ID,
			Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: e.FrameSeq,
		})
	}
	next := s.Next[0]
	if len(s.Next) > 1 {
		next = s.Next[g]
	}
	next.Handle(p)
}

// TotalSent sums the per-virtual-flow emission counters.
func (s *BatchedMixture) TotalSent() int {
	total := 0
	for _, n := range s.Sent {
		total += n
	}
	return total
}

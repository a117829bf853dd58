// Package link models transmission resources: a serializing Link with
// a finite bit rate, propagation delay and an attached scheduler, plus
// a Frame Relay interface emulation (CIR/Bc/Be) matching Table 1 of
// the paper, and a jitter element standing in for the uncontrolled
// campus segments upstream of the QBone policer.
package link

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// Link serializes packets at Rate, adds propagation Delay, and hands
// them to Next. Arriving packets enter the Scheduler; the link drains
// it one transmission time at a time — the standard output-queued
// router port model.
type Link struct {
	Sim   *sim.Simulator
	Rate  units.BitRate
	Delay units.Time
	Sched queue.Scheduler
	Next  packet.Handler
	// Pool, when set, receives packets the scheduler rejects at
	// enqueue (the link owns drops at its port).
	Pool *packet.Pool

	// Tap, when set, receives enqueue/queue-drop/tx/deliver events
	// under the Hop id. A nil Tap costs one pointer comparison per
	// tap point — the hot path stays allocation-free.
	Tap ptrace.Tap
	Hop ptrace.HopID

	busy bool
	cur  *packet.Packet // packet on the wire

	// Pre-bound Timer values so the hot path schedules with zero
	// allocations: txDone fires at serialization end, deliver at
	// propagation end. Bound once in New (or lazily on first Handle
	// for zero-value construction).
	txDone  sim.Timer
	deliver sim.Timer

	// inflight holds packets in propagation, delivery order. Constant
	// Delay means deliveries complete FIFO, so a ring suffices.
	inflight packet.Ring

	Sent      int
	SentBytes int64
	// BusyTime accumulates transmission time for utilization stats.
	BusyTime units.Time
}

// txDoneTimer and deliverTimer give the link two Fire methods without
// per-schedule closures: a *Link pointer-converted to either type is
// the Timer, so the interface values in bind() never allocate.
type (
	txDoneTimer  Link
	deliverTimer Link
)

// Fire completes the current serialization.
func (t *txDoneTimer) Fire(units.Time) { (*Link)(t).finishTx() }

// Fire completes the oldest propagation.
func (d *deliverTimer) Fire(units.Time) { (*Link)(d).deliverHead() }

// New returns a link with the given rate, propagation delay, scheduler
// and next hop.
func New(s *sim.Simulator, rate units.BitRate, delay units.Time, sched queue.Scheduler, next packet.Handler) *Link {
	if sched == nil {
		sched = queue.NewSingleFIFO(0)
	}
	l := &Link{Sim: s, Rate: rate, Delay: delay, Sched: sched, Next: next}
	l.bind()
	return l
}

// SetPool makes pl the link's packet arena: the release target of its
// drops, and the lender of its in-flight ring's storage and, when the
// scheduler is queue.Pooled, its queues'.
func (l *Link) SetPool(pl *packet.Pool) {
	l.Pool = pl
	pl.Lend(&l.inflight)
	if q, ok := l.Sched.(queue.Pooled); ok {
		q.SetPool(pl)
	}
}

// bind materializes the Timer interface values exactly once.
func (l *Link) bind() {
	l.txDone = (*txDoneTimer)(l)
	l.deliver = (*deliverTimer)(l)
}

// Handle enqueues p for transmission. A scheduler rejection is a
// terminal drop owned by the link: the packet is released to Pool.
func (l *Link) Handle(p *packet.Packet) {
	p.EnqueuedAt = l.Sim.Now()
	if !l.Sched.Enqueue(p) {
		if l.Tap != nil {
			l.Tap.Emit(l.event(ptrace.QueueDrop, p))
		}
		l.Pool.Put(p) // queue drop, counted by the scheduler
		return
	}
	if l.Tap != nil {
		l.Tap.Emit(l.event(ptrace.LinkEnqueue, p))
	}
	if !l.busy {
		l.transmitNext()
	}
}

// event copies the fields a trace record needs out of p — the packet
// pointer is never retained (it may be recycled the moment ownership
// moves on).
func (l *Link) event(k ptrace.Kind, p *packet.Packet) ptrace.Event {
	return ptrace.Event{
		Kind: k, Hop: l.Hop, Flow: p.Flow, PktID: p.ID,
		Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: int32(p.FrameSeq),
		QLen: int32(l.Sched.Len()),
	}
}

func (l *Link) transmitNext() {
	p := l.Sched.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	if l.txDone == nil {
		l.bind() // zero-value Link constructed without New
	}
	l.busy = true
	l.cur = p
	tx := l.Rate.TxTime(p.Size)
	l.BusyTime += tx
	l.Sim.AfterTimer(tx, l.txDone)
}

// finishTx runs at serialization end: account the packet, hand it to
// propagation (or directly to Next on a zero-delay link), and start
// the next transmission.
func (l *Link) finishTx() {
	p := l.cur
	l.cur = nil
	l.Sent++
	l.SentBytes += int64(p.Size)
	if l.Tap != nil {
		e := l.event(ptrace.LinkTx, p)
		e.Delay = l.Sim.Now() - p.EnqueuedAt // queueing + serialization here
		l.Tap.Emit(e)
	}
	if l.Delay > 0 {
		l.inflight.Push(p)
		l.Sim.AfterTimer(l.Delay, l.deliver)
	} else {
		if l.Tap != nil {
			l.Tap.Emit(l.event(ptrace.LinkDeliver, p))
		}
		l.Next.Handle(p)
	}
	l.transmitNext()
}

// deliverHead completes propagation of the oldest in-flight packet.
func (l *Link) deliverHead() {
	p := l.inflight.Pop()
	if l.Tap != nil {
		l.Tap.Emit(l.event(ptrace.LinkDeliver, p))
	}
	l.Next.Handle(p)
}

// Utilization reports the fraction of elapsed time spent transmitting.
func (l *Link) Utilization() float64 {
	now := l.Sim.Now()
	if now == 0 {
		return 0
	}
	return float64(l.BusyTime) / float64(now)
}

// FrameRelayConfig is one row of the paper's Table 1: the Committed
// Information Rate, Committed Burst Size, and Excess Burst Size of a
// Frame Relay interface.
type FrameRelayConfig struct {
	Name string        // e.g. "router2/FR1"
	CIR  units.BitRate // committed information rate
	Bc   int64         // committed burst, bits per Tc
	Be   int64         // excess burst, bits per Tc
	Kind string        // "HSSI" or "V.35"
}

// Table1 reproduces the paper's Table 1: every interface at CIR =
// 2 Mbps, Bc = 2 Mbit, Be = 0 — i.e. the FR network emulates constant
// 2 Mbps pipes, with the V.35 E1 interface as the bottleneck. A
// CIR-limited PVC with Be = 0 serializes exactly as a constant-rate
// Link at CIR, so New(s, cfg.CIR, …) is the whole FR model.
func Table1() []FrameRelayConfig {
	return []FrameRelayConfig{
		{Name: "router2/FR1", CIR: 2e6, Bc: 2e6, Be: 0, Kind: "V.35"},
		{Name: "router2/FR0", CIR: 2e6, Bc: 2e6, Be: 0, Kind: "HSSI"},
		{Name: "router1/FR1", CIR: 2e6, Bc: 2e6, Be: 0, Kind: "HSSI"},
		{Name: "router3/FR1", CIR: 2e6, Bc: 2e6, Be: 0, Kind: "V.35"},
	}
}

// Jitter perturbs inter-packet spacing by a random delay in [0, Max],
// modeling the uncontrolled campus/cross-traffic segments that the
// paper notes can push a stream out of profile before it reaches the
// policer (the ATM CDV-tolerance analogy, §3.2). Delivery order is
// preserved by never scheduling a packet before its predecessor.
type Jitter struct {
	Sim  *sim.Simulator
	Max  units.Time
	Next packet.Handler

	lastDelivery units.Time

	// Delivery times are monotone (see Handle), so the packets in
	// flight form a FIFO ring: each scheduled event delivers the head.
	pending packet.Ring
	timer   sim.Timer
}

// jitterTimer is the pointer-conversion Timer of a Jitter.
type jitterTimer Jitter

// Fire delivers the oldest delayed packet.
func (j *jitterTimer) Fire(units.Time) { (*Jitter)(j).deliverHead() }

// Handle delays p by a uniform random jitter, preserving order. One
// event is scheduled per packet (so same-instant ordering against the
// rest of the simulation is identical to direct scheduling), but the
// packet rides the Jitter's own ring instead of a captured closure.
func (j *Jitter) Handle(p *packet.Packet) {
	d := units.Time(0)
	if j.Max > 0 {
		d = units.Time(j.Sim.RNG().Float64() * float64(j.Max))
	}
	t := j.Sim.Now() + d
	if t < j.lastDelivery {
		t = j.lastDelivery
	}
	j.lastDelivery = t
	if j.timer == nil {
		j.timer = (*jitterTimer)(j)
	}
	j.pending.Push(p)
	j.Sim.AtTimer(t, j.timer)
}

// SetPool lends the jitter's in-flight ring its storage from pl.
func (j *Jitter) SetPool(pl *packet.Pool) { pl.Lend(&j.pending) }

func (j *Jitter) deliverHead() {
	j.Next.Handle(j.pending.Pop())
}

// Loss drops packets independently with probability P — a stand-in
// for residual uncontrolled loss on wide-area segments.
type Loss struct {
	Sim  *sim.Simulator
	P    float64
	Next packet.Handler
	Pool *packet.Pool // terminal release target for dropped packets

	// Tap, when set, receives a Loss event per dropped packet.
	Tap ptrace.Tap
	Hop ptrace.HopID

	Dropped int
}

// Handle drops (releasing to Pool) or forwards p.
func (l *Loss) Handle(p *packet.Packet) {
	if l.P > 0 && l.Sim.RNG().Float64() < l.P {
		l.Dropped++
		if l.Tap != nil {
			l.Tap.Emit(ptrace.Event{
				Kind: ptrace.Loss, Hop: l.Hop, Flow: p.Flow, PktID: p.ID,
				Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: int32(p.FrameSeq),
			})
		}
		l.Pool.Put(p)
		return
	}
	l.Next.Handle(p)
}

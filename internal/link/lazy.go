package link

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// beSize is the size of every best-effort packet a lazy port computes:
// the cross traffic it stands for is Ethernet-MTU Poisson traffic.
const beSize = units.EthernetMTU

// depCap bounds the best-effort departures a lazy port holds for its
// consumer, a power of two. When it fills, the consumer takes what
// reaches it before the newest departure, which leaves at most
// Delay/tx + 1 of them.
const depCap = 32

// maxTime orders after every instant an event can be scheduled at.
const maxTime = units.Time(1<<63 - 1)

// Arrivals is a best-effort source a lazy port draws from instead of
// being handed packets (traffic.Poisson with Pulled set).
type Arrivals interface {
	Gap() units.Time // the time from one arrival to the next
	Emit()           // counts one arrival as sent
}

// Sink counts the best-effort packets the last lazy port of a line
// delivers (client.UDP): at is the instant each reaches it.
type Sink interface {
	CountArrival(at units.Time, size int)
}

// key places one event of a lazy port in firing order: by time, then by
// the instant it was scheduled at, then, between two events the port
// itself scheduled at one instant, by the order it scheduled them in.
type key struct {
	t, at units.Time
	ord   uint64
	up    bool // scheduled by another element than the port
}

// bestEffort is a lazy port's computed best-effort class (see the
// package comment). NewLazy allocates it with its Link, in one object.
type bestEffort struct {
	on   bool
	up   *Link // the lazy port feeding this one; nil at the line's head
	down *Link // the lazy port this one feeds
	sink Sink  // what the line delivers past this port, on its last one
	// based is set once the sink took its first carried packet, whose
	// arrival fixed its presentation base.
	based bool
	src   Arrivals // the port's own cross source, or nil
	low   *queue.FIFO
	tx    units.Time // a best-effort packet's transmission time

	// hi and queued are the EF and best-effort packets queued: the
	// scheduler's class lengths, kept here off its interface.
	hi, queued int

	next  key    // the source's next arrival
	wire  bool   // a best-effort packet is on the wire,
	done  key    // ending here
	ef    key    // the end of the EF packet on the wire, while Link.busy
	wake  key    // the best-effort end an armed wake-up stands for
	armed bool   // a wake-up is scheduled
	ord   uint64 // the port's scheduling order

	// floor bounds the next departure the ring does not hold from
	// below: run raises it past each instant it fires every event up to,
	// departure to earliest. It stays a bound as the port runs, since
	// nothing the port does can make a packet leave sooner.
	floor units.Time

	feeds   bool               // a consumer takes the departures: down or sink
	deps    [depCap]units.Time // departures the consumer has not taken, oldest at head
	head, n int

	ties int
}

// NewLazy is New for a port that LazyBestEffort will make lazy: the
// link and its best-effort state are one allocation, and a link from
// New carries no such state. Until LazyBestEffort it is a plain link.
func NewLazy(s *sim.Simulator, rate units.BitRate, delay units.Time, sched queue.Scheduler, next packet.Handler) *Link {
	p := new(struct {
		Link
		be bestEffort
	})
	p.init(s, rate, delay, sched, next)
	p.Link.be = &p.be
	return &p.Link
}

// LazyBestEffort makes l a lazy port: its best-effort class is computed,
// not carried (see the package comment). up is the lazy port whose
// best-effort departures reach l after up.Delay (nil at the head of the
// line), src is l's own cross source (nil for none), and sink counts what
// l delivers (nil unless l is the line's last port). Ports are made lazy
// head first, after the sources started and before the simulation runs;
// l must come from NewLazy, untapped, with a propagation delay and a
// queue.Priority whose high class takes EF. From then on only EF packets may reach l.Handle.
func (l *Link) LazyBestEffort(up *Link, src Arrivals, sink Sink) {
	pr, ok := l.Sched.(*queue.Priority)
	if !ok || l.be == nil || l.Tap != nil || l.Delay <= 0 {
		panic("link: a lazy port needs an untapped priority port made by NewLazy, with a propagation delay")
	}
	b := l.be
	b.on, b.up, b.src, b.sink, b.low = true, up, src, sink, &pr.Low
	b.tx = l.Rate.TxTime(beSize)
	if int(l.Delay/b.tx)+2 >= depCap {
		panic(fmt.Sprintf("link: %v of propagation holds too many %v departures for a lazy port", l.Delay, b.tx))
	}
	b.feeds = sink != nil
	if up != nil {
		up.be.down, up.be.feeds = l, true
	}
	if src != nil {
		now := l.Sim.Now()
		b.next = key{t: now + src.Gap(), at: now, ord: b.tick()}
	}
}

// Ties counts the same-instant orderings l could not resolve: two events
// at one time, scheduled at one instant by different elements. It resolves
// them port first; the per-packet path orders them by a sequence number
// the port does not see, so a nonzero count means the two paths may
// differ.
func (l *Link) Ties() int {
	if l.be == nil {
		return 0
	}
	return l.be.ties
}

// Flush computes every best-effort event of the lazy line that ends at l
// up to and including t, and counts into the sink what reaches it by t.
// Call it once the simulation has stopped with its clock at t.
func (l *Link) Flush(t units.Time) {
	if up := l.be.up; up != nil {
		up.Flush(t)
	}
	l.catchUp(key{t: t, at: maxTime})
	if l.be.sink != nil {
		l.drainSink(t + 1)
	}
}

func (b *bestEffort) tick() uint64 {
	b.ord++
	return b.ord
}

// before reports whether x fires before y, counting a tie it cannot
// order (and putting the port's own event first).
func (b *bestEffort) before(x, y key) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	if x.at != y.at {
		return x.at < y.at
	}
	if x.up != y.up {
		b.ties++
		return !x.up
	}
	return x.ord < y.ord
}

// catchUp fires every computed event that comes before target.
func (l *Link) catchUp(target key) { l.run(target, 0) }

// run fires the port's computed events that come before target, in
// order. With fill > 0 it stops early, once the consumer has fill
// departures to take.
func (l *Link) run(target key, fill int) {
	const (
		none = iota
		own
		fromUp
	)
	b := l.be
	up := b.up
	for {
		// The earliest arrival: the source's or the upstream port's.
		kind := none
		var a key
		if b.src != nil {
			a, kind = b.next, own
		}
		if up != nil {
			d, ok := up.be.deps[up.be.head], up.be.n > 0
			if !ok {
				d, ok = up.departure(target.t - up.Delay)
			}
			if u := (key{t: d + up.Delay, at: d, up: true}); ok && (kind == none || b.before(u, a)) {
				a, kind = u, fromUp
			}
		}
		// The transmissions that end before it, or before target.
		lim, last := target, true
		if kind != none && b.before(a, target) {
			lim, last = a, false
		}
		for b.wire && b.before(b.done, lim) {
			t := b.done.t
			l.Sent++
			l.SentBytes += beSize
			if b.feeds {
				b.deps[(b.head+b.n)&(depCap-1)] = t
				if b.n++; b.n == depCap {
					l.unload(t)
				}
			}
			b.wire = false
			l.startNext(t)
			if b.feeds && b.n == fill {
				return
			}
		}
		if last {
			l.reached(target)
			return
		}
		if kind == own {
			b.src.Emit()
			l.arrive(a.t)
			b.next = key{t: a.t + b.src.Gap(), at: a.t, ord: b.tick()}
		} else {
			up.takeDeparture()
			l.arrive(a.t)
		}
	}
}

// reached notes that run got to target: every event at or before an
// inclusive target's time has fired.
func (l *Link) reached(target key) {
	if target.at == maxTime && target.t >= l.be.floor {
		l.be.floor = target.t + 1
	}
}

// arrive queues a best-effort packet arriving at t, or counts its drop,
// and puts it on an idle wire.
func (l *Link) arrive(t units.Time) {
	b := l.be
	if !b.low.Admit(beSize) {
		return
	}
	if l.busy || b.wire {
		b.queued++
		return
	}
	b.low.Release(beSize)
	l.sendBE(t)
}

// sendBE puts the head best-effort packet on the wire at t.
func (l *Link) sendBE(t units.Time) {
	b := l.be
	l.BusyTime += b.tx
	b.wire = true
	b.done = key{t: t + b.tx, at: t, ord: b.tick()}
}

// sendEF puts EF packet p on the wire now; its end is a calendar event.
func (l *Link) sendEF(p *packet.Packet) {
	now := l.Sim.Now()
	l.busy = true
	l.cur = p
	tx := l.Rate.TxTime(p.Size)
	l.BusyTime += tx
	l.be.ef = key{t: now + tx, at: now, ord: l.be.tick()}
	l.Sim.AfterTimer(tx, l.txDone)
}

// startNext hands the wire, free at t, to the next packet: EF first.
// An EF transmission is scheduled, so it may only start inside an event
// firing at t; the wake-up armed in handleLazy guarantees one.
func (l *Link) startNext(t units.Time) {
	b := l.be
	switch {
	case b.hi > 0:
		l.startEF(t)
	case b.queued > 0:
		b.queued--
		b.low.Release(beSize)
		l.sendBE(t)
	}
}

// startEF puts the head EF packet on the wire at t, which must be now.
func (l *Link) startEF(t units.Time) {
	if t != l.Sim.Now() {
		panic(fmt.Sprintf("link: lazy port frees its wire for EF at %v outside an event (now %v)", t, l.Sim.Now()))
	}
	l.be.hi--
	l.sendEF(l.Sched.Dequeue())
}

// unload has the consumer of a full ring take what reaches it before t,
// the newest departure. It reads the ring without stepping the port,
// since t itself stays queued.
func (l *Link) unload(t units.Time) {
	b := l.be
	if b.down != nil {
		b.down.catchUp(key{t: t, at: -1})
	} else {
		l.drainSink(t)
	}
	if b.n == depCap {
		panic("link: lazy port's departures outran its consumer")
	}
}

// departure returns the oldest departure the consumer has not taken.
// Holding none, the port first runs its events up to limit, which must
// lie before the current instant, until it holds half a ring.
func (l *Link) departure(limit units.Time) (units.Time, bool) {
	b := l.be
	if b.n == 0 && limit >= b.floor {
		if b.floor = max(b.floor, l.earliest()); b.floor <= limit {
			l.run(key{t: limit, at: maxTime}, depCap/2)
		}
	}
	if b.n == 0 {
		return 0, false
	}
	return b.deps[b.head], true
}

// earliest bounds the port's next departure from below, from its state
// alone: the end of the best-effort packet on the wire, or a
// transmission time after the wire or the next arrival frees it.
func (l *Link) earliest() units.Time {
	b := l.be
	switch {
	case b.n > 0:
		return b.deps[b.head]
	case b.wire:
		return b.done.t
	case b.queued > 0: // behind the EF packet on the wire
		return b.ef.t + b.tx
	}
	t := maxTime
	if b.src != nil {
		t = b.next.t
	}
	if up := b.up; up != nil {
		if u := up.earliest(); u < t-up.Delay {
			t = u + up.Delay
		}
	}
	if l.busy && t < b.ef.t {
		t = b.ef.t
	}
	if t > maxTime-b.tx {
		return maxTime
	}
	return t + b.tx
}

// takeDeparture consumes the departure departure returned.
func (l *Link) takeDeparture() {
	b := l.be
	b.head = (b.head + 1) & (depCap - 1)
	b.n--
}

// drainSink counts into the sink every best-effort packet that reaches
// it before bound.
func (l *Link) drainSink(bound units.Time) {
	for {
		d, ok := l.departure(bound - 1 - l.Delay)
		if !ok || d+l.Delay >= bound {
			return
		}
		l.takeDeparture()
		l.be.sink.CountArrival(d+l.Delay, beSize)
	}
}

// handleLazy takes an EF packet into a lazy port, after the computed
// events that precede its arrival.
func (l *Link) handleLazy(p *packet.Packet) {
	if p.DSCP != packet.EF {
		panic("link: a lazy port takes only EF packets")
	}
	b := l.be
	now := l.Sim.Now()
	l.catchUp(key{t: now, at: l.Sim.ScheduledAt(), up: true})
	p.EnqueuedAt = now
	if !l.Sched.Enqueue(p) {
		l.Pool.Put(p) // queue drop, counted by the scheduler
		return
	}
	b.hi++
	switch {
	case l.busy:
		// The EF transmission's end takes it.
	case b.wire:
		if !b.armed {
			b.armed, b.wake = true, b.done
			l.Sim.AtTimer(b.done.t, l.wakeUp)
		}
	default:
		l.startNext(now)
	}
}

// finishEF is finishTx on a lazy port.
func (l *Link) finishEF() {
	l.catchUp(l.be.ef)
	p := l.cur
	l.cur = nil
	l.busy = false
	l.Sent++
	l.SentBytes += int64(p.Size)
	l.inflight.Push(p)
	l.Sim.AfterTimer(l.Delay, l.deliver)
	l.startNext(l.Sim.Now())
}

// wake fires at the end of the best-effort transmission an EF packet
// waits behind, so the EF one starts inside an event at that instant.
func (l *Link) wake() {
	b := l.be
	b.armed = false
	w := b.wake
	w.ord++ // through the transmission end itself
	l.catchUp(w)
}

package link

import (
	"fmt"
	"math"

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

// ownCap is how many arrivals of its own source a lazy port draws
// ahead. The source draws from a stream nothing else reads, so drawing
// ahead changes no value.
const ownCap = 32

// maxTime orders after every instant an event can be scheduled at.
const maxTime = units.Time(1<<63 - 1)

// The wire's best-effort end when no best-effort packet is on it: free,
// or held by an EF packet. Both order after every instant an event can
// fire at, so no best-effort transmission ends before them.
const (
	free = maxTime
	held = maxTime - 1
)

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
// The port builds keys only where two instants are equal.
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
	limit int        // low's packet limit; no limit is the largest int
	tx    units.Time // a best-effort packet's transmission time

	// hi and queued are the EF and best-effort packets queued: the
	// scheduler's class lengths, kept here off its interface.
	hi, queued int

	// own holds the source's next arrivals, drawn ahead; own[oi] is the
	// next one. It was scheduled at prev, in the port's order ownOrd:
	// when the arrival before it fired. A port without a source holds
	// maxTime there.
	own    [ownCap]units.Time
	oi     int
	prev   units.Time
	ownOrd uint64

	// done is the end of the best-effort transmission on the wire,
	// started at done - tx in the port's order doneOrd; or free, or held
	// while an EF packet is on it (Link.busy).
	done    units.Time
	doneOrd uint64

	ef    key    // the end of the EF packet on the wire, while Link.busy
	wake  key    // the best-effort end an armed wake-up stands for
	armed bool   // a wake-up is scheduled
	ord   uint64 // the port's scheduling order

	// floor bounds the next departure the ring does not hold from
	// below: run raises it past each instant it fires every event up to,
	// departure to earliest. It stays a bound as the port runs, since
	// nothing the port does can make a packet leave sooner.
	floor units.Time

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
	b.limit = pr.Low.MaxPackets
	if b.limit <= 0 {
		b.limit = math.MaxInt
	}
	b.tx = l.Rate.TxTime(beSize)
	if int(l.Delay/b.tx)+2 >= depCap {
		panic(fmt.Sprintf("link: %v of propagation holds too many %v departures for a lazy port", l.Delay, b.tx))
	}
	b.done = free
	if up != nil {
		up.be.down = l
	}
	b.own[0] = maxTime
	if src != nil {
		b.prev = l.Sim.Now()
		b.ownOrd = b.tick()
		b.own[ownCap-1] = b.prev
		b.draw()
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

// draw refills own with the source's next arrivals, after the last one
// drawn.
func (b *bestEffort) draw() {
	t := b.own[ownCap-1]
	for i := range b.own {
		t += b.src.Gap()
		b.own[i] = t
	}
	b.oi = 0
}

// catchUp fires every computed event that comes before target.
func (l *Link) catchUp(target key) { l.run(target, 0) }

// Why advance stopped: it fired every event before its target, or its
// consumer holds fill departures, or it needs run to unload a full
// ring or put an EF packet on the wire.
const (
	reached = iota
	filled
	full
	toEF
)

// Where advance's next arrival comes from: the port's source, the
// upstream port, or nowhere before target.
const (
	fromOwn = iota
	fromUp
	fromTarget
)

// run fires the port's computed events that come before target, in
// order. With fill > 0 it stops early, once the consumer has fill
// departures to take. advance fires them; run does what advance
// leaves to it between two events.
func (l *Link) run(target key, fill int) {
	b := l.be
	for {
		stop, t := l.advance(target, fill)
		if b.n == depCap {
			l.unload(b.deps[(b.head+depCap-1)&(depCap-1)])
		}
		switch stop {
		case reached:
			if target.at == maxTime && target.t >= b.floor {
				b.floor = target.t + 1
			}
			return
		case filled:
			return
		case toEF:
			l.startEF(t)
			if b.n == fill {
				return
			}
		}
	}
}

// advance is run's loop: Lindley's recursion for a FIFO with a fixed
// transmission time, each transmission ending at max(arrival, previous
// end) + tx, over the port's two arrival streams merged in time order:
// its own arrivals, drawn ahead into own, and the upstream port's
// departures, read in place from its ring at +Delay (the upstream port
// is pulled where its ring runs dry). It keeps the wire, the queue and
// the streams' positions in locals, compares instants alone, and builds
// keys only where two are equal. It stops between two events: before
// target, once the ring holds fill or depCap departures, or at a
// transmission end that hands the wire to EF, whose instant it returns.
func (l *Link) advance(target key, fill int) (stop int, at units.Time) {
	b := l.be
	tx, tt := b.tx, target.t
	stopN := depCap
	if fill > 0 {
		stopN = fill
	}
	done, queued, oi, n := b.done, b.queued, b.oi, b.n
	ownNext := b.own[oi]
	var ub *bestEffort
	var delay, ulim units.Time
	var uh, un int
	if up := b.up; up != nil {
		ub, delay = up.be, up.Delay
		ulim = tt - delay
		uh, un = ub.head, ub.n
	}
	uNext := maxTime // when the upstream port's next departure arrives
	if un > 0 {
		uNext = ub.deps[uh] + delay
	}
	// What the loop does not count it reads off its positions: nothing
	// drains the ring until it returns, and a pull or a draw moves the
	// bases it counts from.
	done0, oi0, n0, un0 := done, oi, n, un
	drops := 0
loop:
	for {
		if un == 0 && ub != nil && ub.floor <= ulim {
			// The upstream port steps on its own state alone, so it
			// runs while this one holds its state in locals.
			ub.head, ub.n = uh, 0
			b.up.pull(ulim)
			if un = ub.n; un > 0 {
				un0 += un
				uNext = ub.deps[uh] + delay
			}
		}
		// The next arrival: the source's, the upstream port's, or target.
		a, from := ownNext, fromOwn
		if uNext <= a {
			if uNext < a || a != maxTime && l.upFirst(a) {
				a, from = uNext, fromUp
			}
		}
		if a >= tt {
			if a > tt || !b.before(l.arrival(a, from, target), target) {
				a, from = tt, fromTarget
			}
		}
		// The transmissions that end before it.
		for done <= a {
			if done == a {
				// An upstream departure arriving at a was scheduled when
				// it left, Delay before; the end, when its transmission
				// started, tx before.
				if from == fromUp && tx != delay {
					if tx < delay {
						break
					}
				} else if !l.endsFirst(a, from, target) {
					break
				}
			}
			b.deps[(b.head+n)&(depCap-1)] = done
			n++
			if b.hi > 0 {
				stop, at, done = toEF, done, held
				break loop
			}
			if queued > 0 {
				queued--
				b.doneOrd = b.tick()
				done += tx
			} else {
				done = free
			}
			if n == stopN {
				stop = filled
				if n == depCap {
					stop = full
				}
				break loop
			}
		}
		if from == fromTarget {
			break
		}
		// The arrival: dropped at a full queue, queued behind the wire,
		// or put on a free one.
		if queued >= b.limit {
			drops++
		} else if done == free {
			b.doneOrd = b.tick()
			done = a + tx
		} else {
			queued++
		}
		if from == fromUp {
			uh = (uh + 1) & (depCap - 1)
			if un--; un > 0 {
				uNext = ub.deps[uh] + delay
			} else {
				uNext = maxTime
			}
			continue
		}
		b.prev, b.ownOrd = a, b.tick()
		if oi++; oi == ownCap {
			b.draw()
			oi, oi0 = 0, oi0-ownCap
		}
		ownNext = b.own[oi]
	}
	sent, emits := n-n0, oi-oi0
	starts := sent
	if done < held {
		starts++
	}
	if done0 < held {
		starts--
	}
	b.done, b.queued, b.oi, b.n = done, queued, oi, n
	if ub != nil {
		ub.head, ub.n = uh, un
	}
	l.Sent += sent
	l.SentBytes += int64(sent) * beSize
	l.BusyTime += units.Time(starts) * tx
	b.low.Account(emits+un0-un-drops, drops, queued, beSize)
	for ; emits > 0; emits-- {
		b.src.Emit()
	}
	return stop, at
}

// endsFirst reports whether the best-effort transmission ending at a
// fires before advance's next arrival at the same instant.
func (l *Link) endsFirst(a units.Time, from int, target key) bool {
	b := l.be
	return b.before(key{t: a, at: a - b.tx, ord: b.doneOrd}, l.arrival(a, from, target))
}

// upFirst reports whether an upstream departure reaching the port at u
// fires before its own arrival at the same instant.
func (l *Link) upFirst(u units.Time) bool {
	return l.be.before(l.arrival(u, fromUp, key{}), l.arrival(u, fromOwn, key{}))
}

// arrival is the key of advance's next arrival at a, by where it comes
// from; target is fromTarget's.
func (l *Link) arrival(a units.Time, from int, target key) key {
	b := l.be
	switch from {
	case fromOwn:
		return key{t: a, at: b.prev, ord: b.ownOrd}
	case fromUp:
		return key{t: a, at: a - b.up.Delay, up: true}
	}
	return target
}

// sendBE puts the head best-effort packet on the wire at t.
func (l *Link) sendBE(t units.Time) {
	b := l.be
	l.BusyTime += b.tx
	b.done, b.doneOrd = t+b.tx, b.tick()
}

// sendEF puts EF packet p on the wire now; its end is a calendar event.
func (l *Link) sendEF(p *packet.Packet) {
	now := l.Sim.Now()
	l.busy = true
	l.cur = p
	tx := l.Rate.TxTime(p.Size)
	l.BusyTime += tx
	l.be.done = held
	l.be.ef = key{t: now + tx, at: now, ord: l.be.tick()}
	l.Sim.AfterTimer(tx, l.txDone)
}

// startNext hands the free wire to the next packet at t, which must be
// now: EF first. An EF transmission is scheduled, so it may only start
// inside an event firing at t; the wake-up armed in handleLazy
// guarantees one.
func (l *Link) startNext(t units.Time) {
	b := l.be
	switch {
	case b.hi > 0:
		l.startEF(t)
	case b.queued > 0:
		b.queued--
		b.low.Account(0, 0, b.queued, beSize)
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

// pull has a port whose consumer took every departure run its events up
// to limit, which must lie before the current instant, until it holds
// half a ring; unless its floor shows it departs nothing by then.
func (l *Link) pull(limit units.Time) {
	b := l.be
	if b.n == 0 && limit >= b.floor {
		if b.floor = max(b.floor, l.earliest()); b.floor <= limit {
			l.run(key{t: limit, at: maxTime}, depCap/2)
		}
	}
}

// earliest bounds the port's next departure from below, from its state
// alone: the end of the best-effort packet on the wire, or a
// transmission time after the wire or the next arrival frees it.
func (l *Link) earliest() units.Time {
	b := l.be
	switch {
	case b.n > 0:
		return b.deps[b.head]
	case b.done < held:
		return b.done
	case b.queued > 0: // behind the EF packet on the wire
		return b.ef.t + b.tx
	}
	t := b.own[b.oi]
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

// drainSink counts into the sink every best-effort packet that reaches
// it before bound.
func (l *Link) drainSink(bound units.Time) {
	b := l.be
	for {
		if b.n == 0 {
			if l.pull(bound - 1 - l.Delay); b.n == 0 {
				return
			}
		}
		d := b.deps[b.head]
		if d+l.Delay >= bound {
			return
		}
		b.head = (b.head + 1) & (depCap - 1)
		b.n--
		if b.sink != nil {
			b.sink.CountArrival(d+l.Delay, beSize)
		}
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
	case b.done < held:
		if !b.armed {
			b.armed, b.wake = true, key{t: b.done, at: b.done - b.tx, ord: b.doneOrd}
			l.Sim.AtTimer(b.done, l.wakeUp)
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
	l.be.done = free
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

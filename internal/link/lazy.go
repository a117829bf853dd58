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

// free is the wire's end while nothing is on it: it orders after every
// instant an event can fire at, so no transmission ends before it.
const free = maxTime

// efCap is how many EF packets a lazy port holds before its EF ring
// first grows: a port rarely holds more than a few.
const efCap = 16

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

// bestEffort is a lazy port's computed state (see the package comment).
// NewLazy allocates it with its Link, in one object.
type bestEffort struct {
	on   bool
	up   *Link // the lazy port feeding this one; nil at the line's head
	down *Link // the lazy port this one feeds; nil at the line's end
	sink Sink  // what the line delivers past this port, on its last one
	// based is set once the sink took its first carried packet, whose
	// arrival fixed its presentation base.
	based bool
	src   Arrivals // the port's own cross source, or nil
	low   *queue.FIFO
	limit int        // low's packet limit; no limit is the largest int
	tx    units.Time // a best-effort packet's transmission time

	// queued is the best-effort packets queued: the scheduler's low
	// class length, kept here off its interface.
	queued int

	// own holds the source's next arrivals, drawn ahead; own[oi] is the
	// next one. It was scheduled at prev, in the port's order ownOrd:
	// when the arrival before it fired. A port without a source holds
	// maxTime there.
	own    [ownCap]units.Time
	oi     int
	prev   units.Time
	ownOrd uint64

	// done is the end of the transmission on the wire, started at
	// done - cur in the port's order doneOrd; or free. onEF says whose
	// it is: the head of efs, or a best-effort packet's. pub says a
	// best-effort end is already in deps (see publish).
	done    units.Time
	cur     units.Time
	doneOrd uint64
	onEF    bool
	pub     bool

	// efs holds the EF packets at the port, oldest first: the one on the
	// wire (onEF), then those queued. The ring is efBuf until a burst
	// outgrows it. efTail is when the newest of them leaves.
	efs         []efPacket
	efHead, efN int
	efTail      units.Time
	high        *queue.FIFO
	highLimit   int // high's packet limit; 0 for none
	efBuf       [efCap]efPacket
	ord         uint64 // the port's scheduling order

	// floor bounds the next departure the ring does not hold from
	// below: run raises it past each instant it fires every event up to,
	// departure to earliest. It stays a bound as the port runs, since
	// nothing the port does can make a packet leave sooner.
	floor units.Time

	deps    [depCap]units.Time // best-effort departures the consumer has not taken, oldest at head
	head, n int

	ties int
}

// efPacket is what a lazy port keeps of an EF packet it holds: the
// packet itself has moved on down the line.
type efPacket struct {
	size int
	tx   units.Time
}

// NewLazy is New for a port that LazyBestEffort will make lazy: the
// link and its computed state are one allocation, and a link from New
// carries no such state. Until LazyBestEffort it is a plain link.
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
// not carried, and its EF packets pass through it inside the call that
// hands them to the line's head (see the package comment). up is the
// lazy port whose best-effort departures reach l after up.Delay (nil at
// the head of the line), src is l's own cross source (nil for none), and
// sink counts the best effort l delivers (nil unless l is the line's
// last port, whose Next takes the EF packets). Ports are made lazy head
// first, after the sources started and before the simulation runs; l
// must come from NewLazy, untapped, with a propagation delay and a
// queue.Priority whose high class takes EF. From then on only EF packets
// may reach the head's Handle, and nothing may reach another port's.
func (l *Link) LazyBestEffort(up *Link, src Arrivals, sink Sink) {
	pr, ok := l.Sched.(*queue.Priority)
	if !ok || l.be == nil || l.Tap != nil || l.Delay <= 0 {
		panic("link: a lazy port needs an untapped priority port made by NewLazy, with a propagation delay")
	}
	b := l.be
	b.on, b.up, b.src, b.sink, b.low, b.high = true, up, src, sink, &pr.Low, &pr.High
	b.limit = pr.Low.MaxPackets
	if b.limit <= 0 {
		b.limit = math.MaxInt
	}
	b.highLimit = pr.High.MaxPackets
	b.tx = l.Rate.TxTime(beSize)
	if int(l.Delay/b.tx)+2 >= depCap {
		panic(fmt.Sprintf("link: %v of propagation holds too many %v departures for a lazy port", l.Delay, b.tx))
	}
	b.done, b.cur = free, b.tx
	b.efs = b.efBuf[:]
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

// Flush computes every event of the lazy line that ends at l up to and
// including t, and counts into the sink what reaches it by t. Call it
// once the simulation has stopped with its clock at t, for counters
// that read as a per-packet run's: it moves no EF packet's outcome.
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

// handleLazy carries an EF packet from the line's head to its end in
// one call. At each port it fires every event that precedes the
// packet's arrival, then works out when the packet leaves: after the
// best-effort packet on the wire, if any, and the EF packets ahead of
// it. The next port takes it its propagation delay later, and the last
// hands it to Next at that instant (sim.Simulator.FireAt). A packet
// still in the line at the simulator's horizon stays there, as it would
// in flight.
func (l *Link) handleLazy(p *packet.Packet) {
	if p.DSCP != packet.EF || l.be.up != nil {
		panic("link: a lazy line takes only EF packets, at its head")
	}
	horizon := l.Sim.Horizon()
	if horizon == 0 {
		horizon = maxTime
	}
	k := key{t: l.Sim.Now(), at: l.Sim.ScheduledAt(), up: true}
	for port := l; ; port = port.be.down {
		end, ok := port.takeEF(p.Size, k)
		if !ok {
			port.Pool.Put(p) // queue drop, counted by the scheduler
			return
		}
		k = key{t: end + port.Delay, at: end, up: true}
		if k.t > horizon {
			return
		}
		if port.be.down == nil {
			port.inflight.Push(p)
			port.Sim.FireAt(k.t, k.at, port.deliver)
			return
		}
	}
}

// takeEF takes an EF packet of size bytes arriving at k into the port,
// after every event that precedes it, and returns the instant it leaves;
// ok is false if the EF class is full and drops it.
func (l *Link) takeEF(size int, k key) (leaves units.Time, ok bool) {
	l.catchUp(k)
	b := l.be
	queued := b.efN
	if b.onEF {
		queued--
	}
	if b.highLimit > 0 && queued >= b.highLimit {
		b.high.Account(0, 1, queued, size)
		return 0, false
	}
	b.high.Account(1, 0, queued+1, size)
	tx := l.Rate.TxTime(size)
	b.pushEF(efPacket{size: size, tx: tx})
	switch {
	case b.efN > 1: // behind the EF packets the port holds
		leaves = b.efTail + tx
	case b.done != free: // behind the best-effort packet on the wire
		leaves = b.done + tx
		l.publish()
	default: // onto the free wire
		leaves = k.t + tx
		l.startEF()
		b.done, b.cur, b.onEF, b.doneOrd = leaves, tx, true, b.tick()
	}
	b.efTail = leaves
	return leaves, true
}

// pushEF appends an EF packet to the port's ring, doubling it if full.
func (b *bestEffort) pushEF(e efPacket) {
	if b.efN == len(b.efs) {
		grown := make([]efPacket, 2*len(b.efs))
		for i := 0; i < b.efN; i++ {
			grown[i] = b.efs[(b.efHead+i)&(len(b.efs)-1)]
		}
		b.efs, b.efHead = grown, 0
	}
	b.efs[(b.efHead+b.efN)&(len(b.efs)-1)] = e
	b.efN++
}

// startEF accounts the head queued EF packet's start and returns its
// transmission time.
func (l *Link) startEF() units.Time {
	b := l.be
	e := b.efs[b.efHead]
	b.high.Account(0, 0, b.efN-1, e.size)
	l.BusyTime += e.tx
	return e.tx
}

// endEF accounts the end of the EF packet on the wire.
func (l *Link) endEF() {
	b := l.be
	e := b.efs[b.efHead]
	b.efHead = (b.efHead + 1) & (len(b.efs) - 1)
	b.efN--
	l.Sent++
	l.SentBytes += int64(e.size)
}

// publish puts the departure of the best-effort packet on the wire in
// the ring before it fires. An EF packet now waits behind it, so the end
// cannot move, and the next port needs it to take that packet: the
// events in between, which this port cannot fire yet, can only queue
// best effort behind the EF packet.
func (l *Link) publish() {
	b := l.be
	b.deps[(b.head+b.n)&(depCap-1)] = b.done
	b.n++
	b.pub = true
	if b.n == depCap {
		l.unload(b.done)
	}
}

// catchUp fires every computed event that comes before target.
func (l *Link) catchUp(target key) { l.run(target, 0) }

// Why advance stopped: it fired every event before its target, or its
// consumer holds fill departures, or it needs run to unload a full
// ring.
const (
	reached = iota
	filled
	full
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
// departures to take. advance fires them; run unloads a full ring
// between two events.
func (l *Link) run(target key, fill int) {
	b := l.be
	for {
		stop := l.advance(target, fill)
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
		}
	}
}

// advance is run's loop: Lindley's recursion for a FIFO with a fixed
// transmission time, each transmission ending at max(arrival, previous
// end) + tx, over the port's two arrival streams merged in time order:
// its own arrivals, drawn ahead into own, and the upstream port's
// departures, read in place from its ring at +Delay (the upstream port
// is pulled where its ring runs dry). An EF packet the port holds takes
// the wire at the first transmission end, for its own transmission
// time. It keeps the wire, the queue and the streams' positions in
// locals, compares instants alone, and builds keys only where two are
// equal. It stops between two events: before target, or once the ring
// holds fill or depCap departures.
func (l *Link) advance(target key, fill int) (stop int) {
	b := l.be
	tx, tt := b.tx, target.t
	stopN := depCap
	if fill > 0 {
		stopN = fill
	}
	done, cur, queued, oi, head, n, ord := b.done, b.cur, b.queued, b.oi, b.head, b.n, b.ord
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
	oi0, un0 := oi, un
	ends, starts, drops := 0, 0, 0
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
				// started, cur before.
				if from == fromUp && cur != delay {
					if cur < delay {
						break
					}
				} else if !l.endsFirst(a, cur, from, target) {
					break
				}
			}
			if b.efN == 0 {
				// A best-effort end with no EF packet at the port: the
				// wire carries best effort (cur is tx) or nothing.
				b.deps[(head+n)&(depCap-1)] = done
				n++
				ends++
				if queued > 0 {
					queued--
					starts++
					ord++
					b.doneOrd = ord
					done += tx
				} else {
					done = free
				}
			} else {
				// The EF packet on the wire ends, or the best-effort
				// one it waited behind, whose departure is in the ring
				// already (publish); the next EF packet, if any, takes
				// the wire.
				if b.onEF {
					l.endEF()
				} else {
					b.pub = false
					ends++
				}
				b.onEF = b.efN > 0
				ord++
				b.doneOrd = ord
				switch {
				case b.onEF:
					cur = l.startEF()
				case queued > 0:
					queued--
					starts++
					cur = tx
				default:
					cur, done = tx, free
				}
				if done != free {
					done += cur
				}
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
			starts++
			ord++
			b.doneOrd = ord
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
		ord++
		b.prev, b.ownOrd = a, ord
		if oi++; oi == ownCap {
			b.draw()
			oi, oi0 = 0, oi0-ownCap
		}
		ownNext = b.own[oi]
	}
	emits := oi - oi0
	b.done, b.cur, b.queued, b.oi, b.n, b.ord = done, cur, queued, oi, n, ord
	if ub != nil {
		ub.head, ub.n = uh, un
	}
	l.Sent += ends
	l.SentBytes += int64(ends) * beSize
	l.BusyTime += units.Time(starts) * tx
	b.low.Account(emits+un0-un-drops, drops, queued, beSize)
	for ; emits > 0; emits-- {
		b.src.Emit()
	}
	return stop
}

// endsFirst reports whether the transmission of cur ending at a fires
// before advance's next arrival at the same instant.
func (l *Link) endsFirst(a, cur units.Time, from int, target key) bool {
	b := l.be
	return b.before(key{t: a, at: a - cur, ord: b.doneOrd}, l.arrival(a, from, target))
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
// to limit, until it holds half a ring; unless its floor shows it
// departs nothing by then.
func (l *Link) pull(limit units.Time) {
	b := l.be
	if b.n == 0 && limit >= b.floor {
		if b.floor = max(b.floor, l.earliest()); b.floor <= limit {
			l.run(key{t: limit, at: maxTime}, depCap/2)
		}
	}
}

// earliest bounds the port's next best-effort departure from below,
// from its state alone: the end of the best-effort packet on the wire,
// or a transmission time after the wire or the next arrival frees it.
// While the port holds EF packets no best effort leaves before they
// all have, so a port never runs past the EF packet it took last, whose
// successor it does not know yet.
func (l *Link) earliest() units.Time {
	b := l.be
	switch {
	case b.n > 0:
		return b.deps[b.head]
	case b.efN > 0:
		if b.queued > 0 {
			return b.efTail + b.tx
		}
	case b.done != free:
		return b.done
	}
	t := b.own[b.oi]
	if up := b.up; up != nil {
		if u := up.earliest(); u < t-up.Delay {
			t = u + up.Delay
		}
	}
	if b.efN > 0 && t < b.efTail {
		t = b.efTail
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

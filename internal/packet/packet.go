// Package packet defines the unit of work that flows through the
// simulated network: an IP-datagram-sized packet annotated with the
// DiffServ code point, flow identity, and the application-level frame
// it carries.
//
// Packets are passed by pointer and never copied once created, so a
// component may stamp metadata (marking, timestamps) in place, in the
// spirit of gopacket's zero-copy decoding paths.
//
// # Ownership
//
// Handle takes ownership of its packet. A component does exactly one
// of three things with a packet it receives:
//
//   - forward it to the next Handler (ownership moves with it);
//   - hold it (a queue, a link in flight, a shaper) and forward later;
//   - terminate it — deliver, drop, or consume — and release it back
//     to the simulation's Pool.
//
// Nothing may retain a *Packet after its Handle call returns unless
// it now owns the packet; observers that want to remember a packet
// (taps, sinks, drop hooks) must copy the value, never keep the
// pointer — the owner will recycle it. All pool plumbing is nil-safe:
// a component with a nil Pool falls back to plain heap allocation, so
// hand-wired tests need no pool at all.
package packet

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/units"
)

// nextID backs NewID, a process-wide counter that no simulation uses:
// a run's packets are numbered by its Pool (see Pool.Get). It stays
// only because the benchmark harness times NewID as its packet-id
// kernel.
var nextID atomic.Uint64

// NewID returns a process-unique non-zero id.
func NewID() uint64 { return nextID.Add(1) }

// DSCP is a Differentiated Services Code Point (RFC 2474).
type DSCP uint8

// Code points used in the experiments.
const (
	// BestEffort is the default PHB.
	BestEffort DSCP = 0
	// EF is the Expedited Forwarding code point 101110b (RFC 2598).
	// (The paper's testbed configured 101100b on the routers; the
	// constant here follows the RFC value — only equality matters.)
	EF DSCP = 0x2E
	// AF11..AF13 are the Assured Forwarding class-1 drop precedences
	// (RFC 2597), used by the srTCM marker: green, yellow, red.
	AF11 DSCP = 0x0A
	AF12 DSCP = 0x0C
	AF13 DSCP = 0x0E
)

// String names the code point.
func (d DSCP) String() string {
	switch d {
	case BestEffort:
		return "BE"
	case EF:
		return "EF"
	case AF11:
		return "AF11"
	case AF12:
		return "AF12"
	case AF13:
		return "AF13"
	default:
		return fmt.Sprintf("DSCP(0x%02x)", uint8(d))
	}
}

// Color is the token-bucket marker verdict used by the three-color
// markers (RFC 2697/2698).
type Color uint8

// Marker verdicts.
const (
	Green Color = iota
	Yellow
	Red
)

// String names the color.
func (c Color) String() string {
	switch c {
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("Color(%d)", uint8(c))
	}
}

// Proto is the transport protocol of a packet.
type Proto uint8

// Transport protocols the servers use.
const (
	UDP Proto = iota
	TCP
)

// String names the protocol.
func (p Proto) String() string {
	if p == TCP {
		return "TCP"
	}
	return "UDP"
}

// FlowID identifies a transport flow (the classifier key). The paper's
// router-1 policy classifies on (src, dst) of the video connection;
// a small integer id is the simulation equivalent.
type FlowID uint32

// Packet is one IP datagram in flight.
type Packet struct {
	ID    uint64 // 1, 2, 3, … in the order the run's Pool handed packets out
	Flow  FlowID // classifier key
	Proto Proto  // transport protocol
	Size  int    // bytes on the wire, including headers
	DSCP  DSCP   // current marking
	Color Color  // marker verdict, when a 3-color marker ran

	// Application payload description. FrameSeq identifies the video
	// frame this packet is a fragment of; FragIndex/FragCount locate
	// the fragment within the frame's datagram; a frame is delivered
	// only when every fragment arrives (IP fragmentation semantics,
	// which is what made the large-datagram servers fragile).
	FrameSeq  int
	FragIndex int
	FragCount int

	// TCP bookkeeping (used only by tcpsim flows).
	Seq   int64 // first payload byte sequence number
	Ack   int64 // cumulative ack carried (for ACK segments Size is hdr only)
	IsAck bool

	SentAt     units.Time // stamped by the sender
	EnqueuedAt units.Time // last queue admission time, for delay stats

	// pooled marks packets currently resting in a Pool, to catch
	// double releases (see Pool.Put).
	pooled bool
}

// String summarizes the packet for logs and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d flow=%d %s %dB %s frame=%d frag=%d/%d}",
		p.ID, p.Flow, p.Proto, p.Size, p.DSCP, p.FrameSeq, p.FragIndex+1, p.FragCount)
}

// Pool recycles Packets so the per-packet hot path allocates nothing
// in the steady state. A Pool is deliberately not goroutine-safe:
// each simulation (and therefore each runner worker at any given
// moment) owns its own arena, so packets never cross goroutines.
//
// A Pool also numbers the run's packets: Get stamps each one with the
// next id, starting at 1 after NewPool, Reset or Rewind, so a
// simulation's ids depend on that simulation alone, never on what else
// the process ran or runs beside it.
//
// All methods are nil-safe: a nil *Pool allocates from the heap on
// Get and discards on Put, so pooling is strictly opt-in. Its packets
// belong to no run and carry id 0, unnumbered.
type Pool struct {
	free []*Packet
	id   uint64   // the id of the last packet handed out
	cold []Packet // the rest of the newest chunk, never yet handed out

	// Ring storage (see Lend): the rings lent since the last Reset, and
	// the free arrays. The first untouched free arrays have not been
	// taken since the last Reset; the rest came back since.
	rings     []*Ring
	arrays    [][]*Packet
	untouched int

	// Gets counts Get calls, News the subset that found the free list
	// empty and took a never-used packet, Puts the packets returned.
	// Gets - News is the recycle hit count.
	Gets, News, Puts uint64
}

// minRing is the smallest lent ring array. Lent arrays come in
// power-of-two size classes: class c holds arrays of minRing<<c slots.
const minRing = 16

// ringClass is the largest class an array of n >= minRing slots can
// serve.
func ringClass(n int) int { return bits.Len(uint(n/minRing)) - 1 }

// Lend makes pl the lender of r's backing arrays until the next Reset:
// r then grows through pl's size classes rather than by append. Lending
// a ring twice is a no-op, and a nil Pool lends nothing. A lent ring is
// only ever touched by the goroutine that owns pl.
func (pl *Pool) Lend(r *Ring) {
	if pl == nil || r.pool == pl {
		return
	}
	r.pool = pl
	pl.rings = append(pl.rings, r)
}

// grow makes room in a full ring r lent by pl: it moves r's queued
// packets into an array of the next size class up and frees the
// outgrown one. A ring lent by no pool (pl nil) grows as append grows
// it. Push calls grow only when full, and this — not Push — carries the
// nil check, which keeps Push within the inlining budget.
func (pl *Pool) grow(r *Ring) {
	if pl == nil {
		r.items = append(r.items, nil)[:len(r.items)]
		return
	}
	c := bits.Len(uint(cap(r.items) / minRing)) // the smallest class above cap
	b := pl.take(c)
	if b == nil {
		b = make([]*Packet, 0, minRing<<c)
	}
	b = append(b, r.items[r.head:]...)
	pl.give(r.items)
	r.items, r.head = b, 0
}

// take removes a free array of class c, the most recently freed first,
// keeping the untouched ones a prefix; nil when there is none. The
// search is linear, but a simulation frees tens of arrays and grows a
// ring only on a new high-water mark.
func (pl *Pool) take(c int) []*Packet {
	for i := len(pl.arrays) - 1; i >= 0; i-- {
		b := pl.arrays[i]
		if ringClass(cap(b)) != c {
			continue
		}
		if i < pl.untouched {
			pl.untouched--
			pl.arrays[i] = pl.arrays[pl.untouched]
			i = pl.untouched
		}
		last := len(pl.arrays) - 1
		pl.arrays[i] = pl.arrays[last]
		pl.arrays[last] = nil
		pl.arrays = pl.arrays[:last]
		return b
	}
	return nil
}

// give frees b, emptied; an array below the smallest class is dropped.
// Slots past len(b) are already nil: Pop and the compaction clear every
// slot they give up.
func (pl *Pool) give(b []*Packet) {
	if cap(b) < minRing {
		return
	}
	clear(b)
	pl.arrays = append(pl.arrays, b[:0])
}

// Reset takes back the ring storage lent since the last Reset and
// rewinds the numbering. Every lent ring's array is freed, and the ring
// is left empty and unlent: touched again, it reads empty and grows by
// append, never into the next simulation's arrays. Free arrays the
// ending simulation did not take are dropped, so between simulations a
// Pool keeps only the ring storage the last one used. Packets are not
// affected. The owner resets once a simulation's elements are done
// with, as the experiment runner does after every job.
func (pl *Pool) Reset() {
	if pl == nil {
		return
	}
	n := copy(pl.arrays, pl.arrays[pl.untouched:])
	clear(pl.arrays[n:])
	pl.arrays = pl.arrays[:n]
	for i := len(pl.rings) - 1; i >= 0; i-- {
		r := pl.rings[i]
		pl.give(r.items)
		*r = Ring{}
	}
	pl.untouched = len(pl.arrays)
	clear(pl.rings)
	pl.rings = pl.rings[:0]
	pl.Rewind()
}

// Rewind restarts the numbering: the next Get stamps id 1. A builder
// rewinds the pool it is lent, so each simulation numbers its own
// packets from 1.
func (pl *Pool) Rewind() {
	if pl != nil {
		pl.id = 0
	}
}

// poolChunk is how many packets a cold Get allocates at once. A run's
// arena warms up to its in-flight high-water mark one Get at a time, so
// one heap object per packet was thousands of mallocs per simulation for
// storage that lives as long as the pool anyway; 64 packets are 6.5 KB,
// small against any run that needs a second chunk.
const poolChunk = 64

// NewPool returns an empty arena.
func NewPool() *Pool { return &Pool{} }

// Get returns a packet, recycled if possible, zeroed but for its ID:
// the next in the pool's numbering, or 0 from a nil Pool.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.Gets++
	pl.id++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{ID: pl.id}
		return p
	}
	pl.News++
	if len(pl.cold) == 0 {
		pl.cold = make([]Packet, poolChunk)
	}
	p := &pl.cold[0]
	pl.cold = pl.cold[1:]
	p.ID = pl.id
	return p
}

// Put releases p back to the arena. Releasing the same packet twice
// panics: a double put means two components both believed they owned
// the packet, which is exactly the aliasing bug the ownership rules
// exist to prevent.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic("packet: double Put — two owners released the same packet")
	}
	p.pooled = true
	pl.Puts++
	pl.free = append(pl.free, p)
}

// Free reports how many packets are currently in the arena: released
// and resting, not counting the never-used tail of a chunk.
func (pl *Pool) Free() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// Ring is a FIFO of packets on a compacting slice: Pop nils the
// consumed slot and advances a head index, the backing array restarts
// once empty, and the consumed prefix is compacted away when it
// dominates, so the steady-state push/pop cycle never allocates. It is
// the shared in-flight/pending structure of queues, links, jitter
// elements and paced senders. The zero value is an empty ring that
// grows its backing array by append; a ring lent to a Pool (see
// Pool.Lend) grows through the pool's size classes instead, and the
// array it reached goes back to the pool at Reset, so the next
// simulation's rings find storage at the high-water mark this one's
// reached.
type Ring struct {
	items []*Packet
	head  int
	pool  *Pool // lender of the backing arrays; nil grows by append
}

// Len reports the packets currently queued.
func (r *Ring) Len() int { return len(r.items) - r.head }

// Push appends p. An empty ring always starts at the front — the Pop
// that empties it restarts it — so a ping-pong push/pop reuses slot zero
// forever.
func (r *Ring) Push(p *Packet) {
	if len(r.items) == cap(r.items) {
		r.pool.grow(r)
	}
	r.items = append(r.items, p)
}

// Pop removes and returns the oldest packet, or nil if empty.
func (r *Ring) Pop() *Packet {
	if r.head == len(r.items) {
		return nil
	}
	p := r.items[r.head]
	r.items[r.head] = nil
	r.head++
	if r.head == len(r.items) {
		r.items = r.items[:0]
		r.head = 0
	} else if r.head >= 32 && r.head*2 >= len(r.items) {
		n := copy(r.items, r.items[r.head:])
		for i := n; i < len(r.items); i++ {
			r.items[i] = nil
		}
		r.items = r.items[:n]
		r.head = 0
	}
	return p
}

// Peek returns the oldest packet without removing it, or nil.
func (r *Ring) Peek() *Packet {
	if r.head == len(r.items) {
		return nil
	}
	return r.items[r.head]
}

// Cap reports the size of the ring's backing array, consumed slots
// included — a boundedness probe for tests.
func (r *Ring) Cap() int { return cap(r.items) }

// Handler consumes packets. Every data-plane component (policer,
// queue, link, router, client) implements Handler, so topologies are
// built by plugging Handlers together.
type Handler interface {
	// Handle takes ownership of p at the current simulated time: the
	// implementation must forward p, hold it for later forwarding, or
	// terminate it (releasing it to the pool when one is wired). See
	// the package comment for the full ownership contract.
	Handle(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *Packet) { f(p) }

// Sink is a terminal Handler that counts and discards everything;
// useful as a default next hop and in tests. It retains the last
// packet by value (copy-on-retain), never by pointer, so it is safe
// behind a pool.
type Sink struct {
	Count int
	Bytes int64
	Last  Packet // value copy of the most recent packet
	Pool  *Pool  // optional: terminal release target
}

// Handle records and terminates p.
func (s *Sink) Handle(p *Packet) {
	s.Count++
	s.Bytes += int64(p.Size)
	s.Last = *p
	s.Pool.Put(p)
}

// Package queue provides the buffer-management and scheduling
// mechanisms a DiffServ router port needs. Three families of
// work-conserving schedulers are available behind the uniform
// Scheduler interface:
//
//   - strict priority (the paper's core configuration: EF served from
//     "a simple priority queue structure", §3.2.1.2), plus plain FIFOs;
//   - deficit round robin (DRR) and self-clocked weighted fair queueing
//     (WFQ), for class-isolated sharing of a bottleneck among several
//     behavior aggregates;
//   - RIO (RED with In and Out) active queue management for the
//     Assured Forwarding extension.
//
// Every scheduler reports per-class accounting through Classes(), so
// the measurement harness can ask any port "what did each class
// enqueue, drop, and hold" without knowing the scheduling discipline.
package queue

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
)

// FIFO is a drop-tail queue bounded in packets; a zero MaxPackets
// disables the limit, so the zero value is an unbounded queue. The
// packets ride a packet.Ring, so the steady-state push/pop cycle of a
// busy port performs no allocation.
type FIFO struct {
	MaxPackets int

	ring  packet.Ring
	bytes int64
	// counted is the packets queued as a count only (see Account): a
	// lazily computed class holds no packet objects.
	counted int

	Enqueued      int
	Dropped       int
	EnqueuedBytes int64
	DroppedBytes  int64
}

// len reports the number of queued packets.
func (q *FIFO) len() int { return q.ring.Len() + q.counted }

// push appends p, or drops it (returning false) if the queue is full.
func (q *FIFO) push(p *packet.Packet) bool {
	if !q.admit(p.Size) {
		return false
	}
	q.ring.Push(p)
	return true
}

// admit does push's accounting for a packet of size bytes, or counts
// its drop (returning false) if the queue is full.
func (q *FIFO) admit(size int) bool {
	if q.MaxPackets > 0 && q.len() >= q.MaxPackets {
		q.Dropped++
		q.DroppedBytes += int64(size)
		return false
	}
	q.bytes += int64(size)
	q.Enqueued++
	q.EnqueuedBytes += int64(size)
	return true
}

// Account adds admitted packets and dropped ones, each of size bytes,
// to the counters, and leaves queued of them held as a count. A port
// that computes a class instead of carrying its packets
// (link.Link.LazyBestEffort) keeps its queue this way: it decides each
// admission itself, against MaxPackets.
func (q *FIFO) Account(admitted, dropped, queued, size int) {
	q.Enqueued += admitted
	q.EnqueuedBytes += int64(admitted) * int64(size)
	q.Dropped += dropped
	q.DroppedBytes += int64(dropped) * int64(size)
	q.bytes += int64(queued-q.counted) * int64(size)
	q.counted = queued
}

// pop removes and returns the head packet, or nil if empty.
func (q *FIFO) pop() *packet.Packet {
	p := q.ring.Pop()
	if p != nil {
		q.bytes -= int64(p.Size)
	}
	return p
}

// peek returns the head packet without removing it, or nil.
func (q *FIFO) peek() *packet.Packet { return q.ring.Peek() }

// ClassStats is the uniform per-class counter set every Scheduler
// exposes: what the class admitted, dropped, and currently holds.
type ClassStats struct {
	Name        string
	Queued      int   // packets currently queued
	QueuedBytes int64 // bytes currently queued
	Enqueued    int   // packets admitted since start
	Dropped     int   // packets rejected since start
	Bytes       int64 // bytes admitted since start
}

// stats snapshots the FIFO's counters as a named class.
func (q *FIFO) stats(name string) ClassStats {
	return ClassStats{
		Name: name, Queued: q.len(), QueuedBytes: q.bytes,
		Enqueued: q.Enqueued, Dropped: q.Dropped, Bytes: q.EnqueuedBytes,
	}
}

// Tapped is implemented by schedulers that can annotate their drop
// decisions on a packet trace (the RIO AQM, whose probabilistic
// drops are otherwise indistinguishable from tail drops in the owning
// link's QueueDrop events). The topology builder wires the tap into
// any scheduler that supports it.
type Tapped interface {
	SetTap(t ptrace.Tap, hop ptrace.HopID)
}

// Pooled is implemented by schedulers whose queues can borrow their
// ring storage from a packet arena (see packet.Pool.Lend). A link wires
// its arena into any scheduler that supports it.
type Pooled interface {
	SetPool(pl *packet.Pool)
}

// Scheduler selects the next packet to transmit from a set of queues.
type Scheduler interface {
	// Enqueue admits p to the appropriate queue; reports false on drop.
	Enqueue(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to send, or nil.
	Dequeue() *packet.Packet
	// Len reports the total queued packets.
	Len() int
	// Classes snapshots per-class accounting, in the scheduler's
	// class order.
	Classes() []ClassStats
}

// dscpSet is a set of code points as a lookup table: DSCP is one byte,
// so membership is an index, not a hash.
type dscpSet [256]bool

func newDSCPSet(ds []packet.DSCP) dscpSet {
	var set dscpSet
	for _, d := range ds {
		set[d] = true
	}
	return set
}

// Priority is a strict two-level priority scheduler: packets whose
// DSCP is in the high set are always served before anything else.
// This is exactly the paper's core configuration: "the high priority
// queue being assigned to traffic marked with the EF DSCP".
type Priority struct {
	High FIFO
	Low  FIFO

	isHigh dscpSet
}

// newPriority returns a priority scheduler that treats the given code
// points as high priority, with per-class packet limits (0 = unbounded).
func newPriority(highLimit, lowLimit int, high ...packet.DSCP) *Priority {
	return &Priority{
		High:   FIFO{MaxPackets: highLimit},
		Low:    FIFO{MaxPackets: lowLimit},
		isHigh: newDSCPSet(high),
	}
}

// NewEFPriority is the common case: EF is high priority, everything
// else best effort.
func NewEFPriority(highLimit, lowLimit int) *Priority {
	return newPriority(highLimit, lowLimit, packet.EF)
}

// Enqueue admits p to its class queue.
func (s *Priority) Enqueue(p *packet.Packet) bool {
	if s.isHigh[p.DSCP] {
		return s.High.push(p)
	}
	return s.Low.push(p)
}

// Dequeue serves the high queue exhaustively before the low queue.
func (s *Priority) Dequeue() *packet.Packet {
	if p := s.High.pop(); p != nil {
		return p
	}
	return s.Low.pop()
}

// Len reports total queued packets.
func (s *Priority) Len() int { return s.High.len() + s.Low.len() }

// SetPool implements Pooled.
func (s *Priority) SetPool(pl *packet.Pool) {
	pl.Lend(&s.High.ring)
	pl.Lend(&s.Low.ring)
}

// Classes reports the high and low class counters.
func (s *Priority) Classes() []ClassStats {
	return []ClassStats{s.High.stats("high"), s.Low.stats("low")}
}

// SingleFIFO adapts a FIFO to the Scheduler interface (a best-effort
// only interface).
type SingleFIFO struct{ Q FIFO }

// NewSingleFIFO returns a FIFO scheduler with the given packet limit.
func NewSingleFIFO(limit int) *SingleFIFO {
	return &SingleFIFO{Q: FIFO{MaxPackets: limit}}
}

// Enqueue admits p.
func (s *SingleFIFO) Enqueue(p *packet.Packet) bool { return s.Q.push(p) }

// Dequeue removes the head packet.
func (s *SingleFIFO) Dequeue() *packet.Packet { return s.Q.pop() }

// Len reports queued packets.
func (s *SingleFIFO) Len() int { return s.Q.len() }

// SetPool implements Pooled.
func (s *SingleFIFO) SetPool(pl *packet.Pool) { pl.Lend(&s.Q.ring) }

// Classes reports the single class's counters.
func (s *SingleFIFO) Classes() []ClassStats {
	return []ClassStats{s.Q.stats("fifo")}
}

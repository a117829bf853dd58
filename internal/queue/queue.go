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

	Enqueued      int
	Dropped       int
	EnqueuedBytes int64
	DroppedBytes  int64
}

// Len reports the number of queued packets.
func (q *FIFO) Len() int { return q.ring.Len() }

// Bytes reports the queued byte count.
func (q *FIFO) Bytes() int64 { return q.bytes }

// Push appends p, or drops it (returning false) if the queue is full.
func (q *FIFO) Push(p *packet.Packet) bool {
	if q.MaxPackets > 0 && q.ring.Len() >= q.MaxPackets {
		q.Dropped++
		q.DroppedBytes += int64(p.Size)
		return false
	}
	q.ring.Push(p)
	q.bytes += int64(p.Size)
	q.Enqueued++
	q.EnqueuedBytes += int64(p.Size)
	return true
}

// Pop removes and returns the head packet, or nil if empty.
func (q *FIFO) Pop() *packet.Packet {
	p := q.ring.Pop()
	if p != nil {
		q.bytes -= int64(p.Size)
	}
	return p
}

// Peek returns the head packet without removing it, or nil.
func (q *FIFO) Peek() *packet.Packet { return q.ring.Peek() }

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

// Stats snapshots the FIFO's counters as a named class.
func (q *FIFO) Stats(name string) ClassStats {
	return ClassStats{
		Name: name, Queued: q.Len(), QueuedBytes: q.Bytes(),
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

// NewPriority returns a priority scheduler that treats the given code
// points as high priority, with per-class packet limits (0 = unbounded).
func NewPriority(highLimit, lowLimit int, high ...packet.DSCP) *Priority {
	return &Priority{
		High:   FIFO{MaxPackets: highLimit},
		Low:    FIFO{MaxPackets: lowLimit},
		isHigh: newDSCPSet(high),
	}
}

// NewEFPriority is the common case: EF is high priority, everything
// else best effort.
func NewEFPriority(highLimit, lowLimit int) *Priority {
	return NewPriority(highLimit, lowLimit, packet.EF)
}

// Enqueue admits p to its class queue.
func (s *Priority) Enqueue(p *packet.Packet) bool {
	if s.isHigh[p.DSCP] {
		return s.High.Push(p)
	}
	return s.Low.Push(p)
}

// Dequeue serves the high queue exhaustively before the low queue.
func (s *Priority) Dequeue() *packet.Packet {
	if p := s.High.Pop(); p != nil {
		return p
	}
	return s.Low.Pop()
}

// Len reports total queued packets.
func (s *Priority) Len() int { return s.High.Len() + s.Low.Len() }

// SetPool implements Pooled.
func (s *Priority) SetPool(pl *packet.Pool) {
	pl.Lend(&s.High.ring)
	pl.Lend(&s.Low.ring)
}

// Classes reports the high and low class counters.
func (s *Priority) Classes() []ClassStats {
	return []ClassStats{s.High.Stats("high"), s.Low.Stats("low")}
}

// SingleFIFO adapts a FIFO to the Scheduler interface (a best-effort
// only interface).
type SingleFIFO struct{ Q FIFO }

// NewSingleFIFO returns a FIFO scheduler with the given packet limit.
func NewSingleFIFO(limit int) *SingleFIFO {
	return &SingleFIFO{Q: FIFO{MaxPackets: limit}}
}

// Enqueue admits p.
func (s *SingleFIFO) Enqueue(p *packet.Packet) bool { return s.Q.Push(p) }

// Dequeue removes the head packet.
func (s *SingleFIFO) Dequeue() *packet.Packet { return s.Q.Pop() }

// Len reports queued packets.
func (s *SingleFIFO) Len() int { return s.Q.Len() }

// SetPool implements Pooled.
func (s *SingleFIFO) SetPool(pl *packet.Pool) { pl.Lend(&s.Q.ring) }

// Classes reports the single class's counters.
func (s *SingleFIFO) Classes() []ClassStats {
	return []ClassStats{s.Q.Stats("fifo")}
}

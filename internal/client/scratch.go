package client

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scratch is the receive storage a runner worker owns and lends, job
// after job, to the receivers of whichever simulation it is running:
// frame-trace record arrays, slot tables, TCP message lists and delay
// sample arrays, each at
// the capacity its last borrower left it, and one fragSlab whose chunks
// hold the reassembly states of every UDP receiver of the job. See the
// package comment for the lending contract. The zero value is ready to
// use and every method is nil-safe: a receiver with a nil Scratch gets
// nil buffers and a private slab, and makes them from the heap, on the
// same code path. Until Reset a Scratch keeps its borrowers reachable,
// and through their clock the simulator they ran on, so the owner resets
// as soon as a simulation's traces have been read. A Scratch is not
// goroutine-safe; it belongs to one worker.
type Scratch struct {
	records [][]trace.FrameRecord
	slots   [][]int32
	msgs    [][]message
	delays  [][]float64
	slab    fragSlab

	// What is out on loan since the last Reset, in borrowing order.
	traces []*trace.Trace
	udps   []*UDP
	asms   []*StreamAssembler
	taps   []*stats.DelayCollector
}

// pop takes the top buffer off a free list, emptied; nil when the list
// is.
func pop[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	b := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return b[:0]
}

// push returns a buffer to a free list; one that never grew has nothing
// to keep.
func push[T any](free *[][]T, b []T) {
	if cap(b) > 0 {
		*free = append(*free, b[:0])
	}
}

// empty truncates a list, dropping what it pointed at.
func empty[T any](list *[]T) {
	clear(*list)
	*list = (*list)[:0]
}

// lendRecords gives t an empty record array with room for n records —
// the top of the free list if it has the room, else an exact new one —
// and notes the loan. A Stream borrows with n = 0 and grows what it got;
// a UDP borrows from Finish, once it knows n.
func (s *Scratch) lendRecords(t *trace.Trace, n int) {
	var b []trace.FrameRecord
	if s != nil {
		b = pop(&s.records)
		s.traces = append(s.traces, t)
	}
	if cap(b) < n {
		b = make([]trace.FrameRecord, 0, n)
	}
	t.Records = b
}

// lendUDP gives c its reassembly slab and a slot table of the clip's
// length. The table is cleared whoever had it before: a previous
// borrower may have run a longer clip, or grown the table past its own,
// and its slab indices mean nothing here.
func (s *Scratch) lendUDP(c *UDP) {
	var slots []int32
	c.slab = &c.own
	if s != nil {
		c.slab, slots = &s.slab, pop(&s.slots)
		s.udps = append(s.udps, c)
	}
	n := max(c.tr.ClipFrames, 0)
	if cap(slots) < n {
		slots = make([]int32, n)
	}
	c.slots = slots[:n]
	clear(c.slots)
}

// lendMessages gives a its message list.
func (s *Scratch) lendMessages(a *StreamAssembler) {
	if s == nil {
		return
	}
	a.msgs = pop(&s.msgs)
	s.asms = append(s.asms, a)
}

// LendDelays gives d's Delay summary an empty sample array to grow by
// append. A nil Scratch leaves the summary to grow one from the heap.
func (s *Scratch) LendDelays(d *stats.DelayCollector) {
	if s == nil {
		return
	}
	d.Delay.Swap(pop(&s.delays))
	s.taps = append(s.taps, d)
}

// Reset takes back everything lent since the last Reset, at whatever
// capacity the borrowers left it, and leaves them empty-handed: a trace
// read after this point has no records, and a delay tap no samples,
// rather than another job's.
// Buffers the ending job did not borrow are dropped, and the slab keeps
// only the chunks the job filled, so between jobs a Scratch holds only
// what the last one used. Loans return in reverse, so the next job's
// first borrower draws what this job's first borrower held — a sweep
// rebuilds the same receivers in the same order, and like meets like.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	empty(&s.records)
	empty(&s.slots)
	empty(&s.msgs)
	empty(&s.delays)
	for i := len(s.traces) - 1; i >= 0; i-- {
		t := s.traces[i]
		push(&s.records, t.Records)
		t.Records = nil
	}
	for i := len(s.udps) - 1; i >= 0; i-- {
		c := s.udps[i]
		push(&s.slots, c.slots)
		// A straggling packet reassembles on the receiver's own slab,
		// never in the next job's states.
		c.slots, c.slab = nil, &c.own
	}
	for i := len(s.asms) - 1; i >= 0; i-- {
		a := s.asms[i]
		push(&s.msgs, a.msgs)
		a.msgs = nil
	}
	for i := len(s.taps) - 1; i >= 0; i-- {
		push(&s.delays, s.taps[i].Delay.Swap(nil))
	}
	s.slab.reset()
	empty(&s.traces)
	empty(&s.udps)
	empty(&s.asms)
	empty(&s.taps)
}

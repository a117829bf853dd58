package queue

import "repro/internal/packet"

// WFQ is a packetized weighted fair queueing scheduler using
// self-clocked fair queueing (Golestani, SCFQ): each admitted packet
// gets a virtual finish tag F = max(v, F_last) + size/weight, where v
// is the finish tag of the packet currently in service, and Dequeue
// always serves the smallest head tag. Classes receive throughput in
// proportion to their weights while backlogged, with per-packet
// latency bounded by one round of competing packets — a closer
// approximation of fluid fairness than DRR at the cost of an O(classes)
// dequeue scan.
type WFQ struct {
	classes []*wfqClass
	vtime   float64 // finish tag of the most recently dequeued packet
}

type wfqClass struct {
	spec  ClassSpec
	fifo  FIFO
	tags  []float64 // finish tags, parallel to the FIFO contents
	head  int       // index of the head tag within tags
	lastF float64   // finish tag of the class's newest packet
}

// NewWFQ builds a WFQ scheduler over the given classes. Weights
// default to 1. It panics on an empty class list.
func NewWFQ(specs ...ClassSpec) *WFQ {
	if len(specs) == 0 {
		panic("queue: NewWFQ needs at least one class")
	}
	w := &WFQ{}
	for _, sp := range specs {
		if sp.Weight <= 0 {
			sp.Weight = 1
		}
		w.classes = append(w.classes, &wfqClass{
			spec: sp,
			fifo: FIFO{MaxPackets: sp.Limit},
		})
	}
	return w
}

// classify returns the first class matching d, falling back to the
// last class.
func (w *WFQ) classify(dscp packet.DSCP) int {
	for i, c := range w.classes {
		if c.spec.Match == nil || c.spec.Match(dscp) {
			return i
		}
	}
	return len(w.classes) - 1
}

// Enqueue admits p to its class and stamps its virtual finish tag.
func (w *WFQ) Enqueue(p *packet.Packet) bool {
	c := w.classes[w.classify(p.DSCP)]
	if !c.fifo.Push(p) {
		return false
	}
	start := c.lastF
	if w.vtime > start {
		start = w.vtime
	}
	c.lastF = start + float64(p.Size)/c.spec.Weight
	c.tags = append(c.tags, c.lastF)
	return true
}

// compact drops the consumed tag prefix once it dominates the slice,
// keeping memory proportional to the class backlog even while the
// class stays continuously backlogged.
func (c *wfqClass) compact() {
	switch {
	case c.head == len(c.tags):
		c.tags = c.tags[:0]
		c.head = 0
	case c.head >= 32 && c.head*2 >= len(c.tags):
		n := copy(c.tags, c.tags[c.head:])
		c.tags = c.tags[:n]
		c.head = 0
	}
}

// Dequeue serves the backlogged class with the smallest head finish
// tag and advances the virtual clock to that tag.
func (w *WFQ) Dequeue() *packet.Packet {
	best := -1
	var bestTag float64
	for i, c := range w.classes {
		if c.fifo.Len() == 0 {
			continue
		}
		tag := c.tags[c.head]
		if best < 0 || tag < bestTag {
			best, bestTag = i, tag
		}
	}
	if best < 0 {
		return nil
	}
	c := w.classes[best]
	p := c.fifo.Pop()
	c.head++
	c.compact()
	w.vtime = bestTag
	if w.Len() == 0 {
		// System idle: reset the virtual clock so tags stay small
		// across busy periods (standard SCFQ housekeeping).
		w.vtime = 0
		for _, c := range w.classes {
			c.lastF = 0
			c.tags = c.tags[:0]
			c.head = 0
		}
	}
	return p
}

// Len reports total queued packets.
func (w *WFQ) Len() int {
	n := 0
	for _, c := range w.classes {
		n += c.fifo.Len()
	}
	return n
}

// SetPool implements Pooled.
func (w *WFQ) SetPool(pl *packet.Pool) {
	for _, c := range w.classes {
		pl.Lend(&c.fifo.ring)
	}
}

// Classes reports per-class counters in configuration order.
func (w *WFQ) Classes() []ClassStats {
	out := make([]ClassStats, len(w.classes))
	for i, c := range w.classes {
		out[i] = c.fifo.Stats(c.spec.Name)
	}
	return out
}

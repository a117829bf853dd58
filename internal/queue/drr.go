package queue

import "repro/internal/packet"

// DefaultQuantum is the DRR per-round byte credit when a ClassSpec
// leaves Quantum zero: one MTU, so a class can always send at least
// one full-size packet per round.
const DefaultQuantum = 1500

// ClassSpec configures one class of a multi-class scheduler (DRR or
// WFQ). A nil Match matches every packet, which makes the class a
// wildcard; classification is first-match-wins, and a packet matching
// no class falls back to the last class.
type ClassSpec struct {
	Name    string
	Match   func(packet.DSCP) bool
	Limit   int     // per-class packet cap (0 = unbounded)
	Quantum int     // DRR bytes credited per round (0 = DefaultQuantum)
	Weight  float64 // WFQ service share (0 = 1)
}

// MatchDSCP builds a class matcher for a set of code points.
func MatchDSCP(ds ...packet.DSCP) func(packet.DSCP) bool {
	set := newDSCPSet(ds)
	return func(d packet.DSCP) bool { return set[d] }
}

type drrClass struct {
	spec     ClassSpec
	fifo     FIFO
	deficit  int
	credited bool // quantum already added for the current visit
}

// DRR is a deficit round robin scheduler (Shreedhar & Varghese):
// backlogged classes are visited in rotation, each earning Quantum
// bytes of credit per visit and sending head packets while its deficit
// covers them. Byte-fair regardless of packet sizes, O(1) per packet,
// and work-conserving.
type DRR struct {
	classes []*drrClass
	// ring holds the backlogged class indices in service order. It
	// never exceeds len(classes) and rotates in place, so it settles
	// on one backing array.
	ring []int
}

// NewDRR builds a DRR scheduler over the given classes. It panics on
// an empty class list — a scheduler with nowhere to put packets is a
// wiring bug.
func NewDRR(specs ...ClassSpec) *DRR {
	if len(specs) == 0 {
		panic("queue: NewDRR needs at least one class")
	}
	d := &DRR{}
	for _, sp := range specs {
		if sp.Quantum <= 0 {
			sp.Quantum = DefaultQuantum
		}
		d.classes = append(d.classes, &drrClass{
			spec: sp,
			fifo: FIFO{MaxPackets: sp.Limit},
		})
	}
	return d
}

// Enqueue admits p to its class queue and, if the class just became
// backlogged, appends the class to the service ring.
func (d *DRR) Enqueue(p *packet.Packet) bool {
	i := d.classify(p.DSCP)
	c := d.classes[i]
	wasEmpty := c.fifo.Len() == 0
	if !c.fifo.Push(p) {
		return false
	}
	if wasEmpty {
		c.deficit = 0
		c.credited = false
		d.ring = append(d.ring, i)
	}
	return true
}

// Dequeue serves the ring head: credit its quantum once per visit,
// send while the deficit covers the head packet, rotate otherwise.
func (d *DRR) Dequeue() *packet.Packet {
	for len(d.ring) > 0 {
		i := d.ring[0]
		c := d.classes[i]
		if !c.credited {
			c.deficit += c.spec.Quantum
			c.credited = true
		}
		head := c.fifo.Peek()
		if head != nil && head.Size <= c.deficit {
			c.deficit -= head.Size
			p := c.fifo.Pop()
			if c.fifo.Len() == 0 {
				// An idle class must not bank credit (DRR's
				// anti-burst rule).
				c.deficit = 0
				c.credited = false
				d.ring = d.ring[:copy(d.ring, d.ring[1:])]
			}
			return p
		}
		// Visit exhausted: move to the back of the ring, keeping the
		// residual deficit for the next round.
		c.credited = false
		copy(d.ring, d.ring[1:])
		d.ring[len(d.ring)-1] = i
	}
	return nil
}

// Len reports total queued packets.
func (d *DRR) Len() int {
	n := 0
	for _, c := range d.classes {
		n += c.fifo.Len()
	}
	return n
}

// SetPool implements Pooled.
func (d *DRR) SetPool(pl *packet.Pool) {
	for _, c := range d.classes {
		pl.Lend(&c.fifo.ring)
	}
}

// Classes reports per-class counters in configuration order.
func (d *DRR) Classes() []ClassStats {
	out := make([]ClassStats, len(d.classes))
	for i, c := range d.classes {
		out[i] = c.fifo.Stats(c.spec.Name)
	}
	return out
}

// classify returns the first class matching d, falling back to the
// last class.
func (d *DRR) classify(dscp packet.DSCP) int {
	for i, c := range d.classes {
		if c.spec.Match == nil || c.spec.Match(dscp) {
			return i
		}
	}
	return len(d.classes) - 1
}

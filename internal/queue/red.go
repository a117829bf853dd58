package queue

import (
	"math"

	"repro/internal/packet"
	"repro/internal/ptrace"
)

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson).
type REDConfig struct {
	MinTh   float64 // average queue length (packets) below which no drops
	MaxTh   float64 // average above which all arrivals drop
	MaxP    float64 // drop probability at MaxTh
	Wq      float64 // EWMA weight for the average queue estimate
	MaxSize int     // hard buffer limit in packets
}

// RIO ("RED with In and Out") gives marked-in (green) packets a more
// permissive RED profile than out-of-profile (yellow/red) packets in
// the same physical queue — the droppers behind the AF PHB group.
type RIO struct {
	in   REDConfig
	out  REDConfig
	rand func() float64

	fifo              FIFO
	avgIn             float64 // average of in-profile packets only
	avgAll            float64
	countIn, countOut int

	inQueued      int   // in-profile packets currently queued
	inQueuedBytes int64 // bytes of in-profile packets currently queued

	tap ptrace.Tap
	hop ptrace.HopID

	Enqueued    int
	EnqueuedIn  int
	EnqueuedOut int
	BytesIn     int64
	BytesOut    int64
	DropsIn     int
	DropsOut    int
}

// newRIO returns a RIO queue. in should be more permissive than out.
func newRIO(in, out REDConfig, rand func() float64) *RIO {
	if rand == nil {
		panic("queue: RIO needs a random source")
	}
	r := &RIO{in: in, out: out, rand: rand, countIn: -1, countOut: -1}
	r.fifo.MaxPackets = in.MaxSize
	return r
}

// Len reports the instantaneous queue length.
func (r *RIO) Len() int { return r.fifo.len() }

// SetTap implements Tapped: AQM drop decisions emit REDEarly
// annotations alongside the owning link's QueueDrop events.
func (r *RIO) SetTap(t ptrace.Tap, hop ptrace.HopID) { r.tap, r.hop = t, hop }

// redTest is the Floyd–Jacobson drop decision for one arrival: never
// below MinTh, always from MaxTh, and in between with a probability
// ramping to MaxP, spread by the count since the last drop.
func redTest(avg float64, cfg REDConfig, count *int, rand func() float64) bool {
	switch {
	case avg < cfg.MinTh:
		*count = -1
		return false
	case avg >= cfg.MaxTh:
		*count = 0
		return true
	default:
		*count++
		pb := cfg.MaxP * (avg - cfg.MinTh) / (cfg.MaxTh - cfg.MinTh)
		pa := pb / math.Max(1e-9, 1-float64(*count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if rand() < pa {
			*count = 0
			return true
		}
		return false
	}
}

// Enqueue admits p using the in profile for green packets and the out
// profile (driven by the total average) otherwise.
func (r *RIO) Enqueue(p *packet.Packet) bool {
	in := p.Color == packet.Green
	r.avgAll = (1-r.out.Wq)*r.avgAll + r.out.Wq*float64(r.fifo.len())
	r.avgIn = (1-r.in.Wq)*r.avgIn + r.in.Wq*float64(r.inQueued)
	var dropped bool
	if in {
		dropped = redTest(r.avgIn, r.in, &r.countIn, r.rand)
	} else {
		dropped = redTest(r.avgAll, r.out, &r.countOut, r.rand)
	}
	if dropped && r.tap != nil {
		// Annotate the RIO decision; full-buffer rejections below are
		// plain tail drops the owning link already records.
		r.tap.Emit(ptrace.Event{
			Kind: ptrace.REDEarly, Hop: r.hop, Flow: p.Flow, PktID: p.ID,
			Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: int32(p.FrameSeq),
			QLen: int32(r.fifo.len()), Flag: uint8(p.Color),
		})
	}
	if dropped || !r.fifo.push(p) {
		if in {
			r.DropsIn++
		} else {
			r.DropsOut++
		}
		return false
	}
	if in {
		r.inQueued++
		r.inQueuedBytes += int64(p.Size)
		r.EnqueuedIn++
		r.BytesIn += int64(p.Size)
	} else {
		r.EnqueuedOut++
		r.BytesOut += int64(p.Size)
	}
	r.Enqueued++
	return true
}

// Dequeue removes the head packet.
func (r *RIO) Dequeue() *packet.Packet {
	p := r.fifo.pop()
	if p != nil && p.Color == packet.Green {
		r.inQueued--
		r.inQueuedBytes -= int64(p.Size)
	}
	return p
}

// Classes reports the in- and out-of-profile accounting of the shared
// RIO queue.
func (r *RIO) Classes() []ClassStats {
	return []ClassStats{
		{
			Name: "in", Queued: r.inQueued, QueuedBytes: r.inQueuedBytes,
			Enqueued: r.EnqueuedIn, Dropped: r.DropsIn, Bytes: r.BytesIn,
		},
		{
			Name: "out", Queued: r.fifo.len() - r.inQueued,
			QueuedBytes: r.fifo.bytes - r.inQueuedBytes,
			Enqueued:    r.EnqueuedOut, Dropped: r.DropsOut, Bytes: r.BytesOut,
		},
	}
}

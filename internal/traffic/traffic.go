// Package traffic provides background (cross) traffic sources: CBR and
// Poisson. The QBone experiments
// could not control interfering traffic; the simulator injects it
// explicitly so its effect on the EF service can be studied (and, as
// the paper found, shown to be minor when EF is prioritized).
//
// Every source emits through the sim.Timer API and draws packets from
// an optional packet.Pool, so a running source allocates nothing per
// packet.
package traffic

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// CBR emits fixed-size packets at a constant bit rate.
type CBR struct {
	Sim  *sim.Simulator
	Rate units.BitRate
	Size int
	Flow packet.FlowID
	DSCP packet.DSCP
	Next packet.Handler
	Pool *packet.Pool

	Sent int
}

// cbrTimer is the pointer-conversion Timer of a CBR source.
type cbrTimer CBR

// Fire emits the next packet.
func (c *cbrTimer) Fire(units.Time) { (*CBR)(c).emit() }

// Start schedules the first emission.
func (c *CBR) Start() {
	if c.Size <= 0 {
		c.Size = units.EthernetMTU
	}
	c.Sim.AfterTimer(0, (*cbrTimer)(c))
}

func (c *CBR) emit() {
	p := c.Pool.Get()
	p.Flow, p.Size = c.Flow, c.Size
	p.DSCP, p.SentAt, p.FrameSeq = c.DSCP, c.Sim.Now(), -1
	c.Sent++
	c.Next.Handle(p)
	c.Sim.AfterTimer(c.Rate.TxTime(c.Size), (*cbrTimer)(c))
}

// Poisson emits fixed-size packets with exponential inter-arrivals
// averaging the configured rate.
type Poisson struct {
	Sim  *sim.Simulator
	Rate units.BitRate
	Size int
	Flow packet.FlowID
	DSCP packet.DSCP
	Next packet.Handler
	Pool *packet.Pool

	rng  *sim.RNG
	Sent int
}

// poissonTimer is the pointer-conversion Timer of a Poisson source.
type poissonTimer Poisson

// Fire emits one arrival and schedules the next.
func (p *poissonTimer) Fire(units.Time) { (*Poisson)(p).arrive() }

// Start forks a dedicated RNG stream and schedules the first arrival.
func (p *Poisson) Start() {
	if p.Size <= 0 {
		p.Size = units.EthernetMTU
	}
	p.rng = p.Sim.RNG().Fork()
	p.scheduleNext()
}

func (p *Poisson) scheduleNext() {
	mean := float64(p.Rate.TxTime(p.Size))
	d := units.Time(p.rng.Exp(mean))
	p.Sim.AfterTimer(d, (*poissonTimer)(p))
}

func (p *Poisson) arrive() {
	pkt := p.Pool.Get()
	pkt.Flow, pkt.Size = p.Flow, p.Size
	pkt.DSCP, pkt.SentAt, pkt.FrameSeq = p.DSCP, p.Sim.Now(), -1
	p.Sent++
	p.Next.Handle(pkt)
	p.scheduleNext()
}

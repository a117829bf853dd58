// Package traffic provides background (cross) traffic sources: CBR,
// Poisson, and heavy-tailed on-off generators. The QBone experiments
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
	Sim   *sim.Simulator
	Rate  units.BitRate
	Size  int
	Flow  packet.FlowID
	DSCP  packet.DSCP
	Next  packet.Handler
	Pool  *packet.Pool
	Until units.Time // stop time; 0 = run to horizon

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
	if c.Until > 0 && c.Sim.Now() >= c.Until {
		return
	}
	p := c.Pool.Get()
	p.ID, p.Flow, p.Size = packet.NewID(), c.Flow, c.Size
	p.DSCP, p.SentAt, p.FrameSeq = c.DSCP, c.Sim.Now(), -1
	c.Sent++
	c.Next.Handle(p)
	c.Sim.AfterTimer(c.Rate.TxTime(c.Size), (*cbrTimer)(c))
}

// Poisson emits fixed-size packets with exponential inter-arrivals
// averaging the configured rate.
type Poisson struct {
	Sim   *sim.Simulator
	Rate  units.BitRate
	Size  int
	Flow  packet.FlowID
	DSCP  packet.DSCP
	Next  packet.Handler
	Pool  *packet.Pool
	Until units.Time

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
	if p.Until > 0 && p.Sim.Now() >= p.Until {
		return
	}
	pkt := p.Pool.Get()
	pkt.ID, pkt.Flow, pkt.Size = packet.NewID(), p.Flow, p.Size
	pkt.DSCP, pkt.SentAt, pkt.FrameSeq = p.DSCP, p.Sim.Now(), -1
	p.Sent++
	p.Next.Handle(pkt)
	p.scheduleNext()
}

// OnOff alternates exponentially distributed ON periods, during which
// it sends CBR at PeakRate, with Pareto-tailed OFF periods — the
// classic self-similar cross-traffic model.
type OnOff struct {
	Sim      *sim.Simulator
	PeakRate units.BitRate
	Size     int
	MeanOn   units.Time
	MeanOff  units.Time
	Flow     packet.FlowID
	DSCP     packet.DSCP
	Next     packet.Handler
	Pool     *packet.Pool
	Until    units.Time

	rng   *sim.RNG
	onEnd units.Time
	Sent  int
}

// onOffStartTimer begins an ON period; onOffEmitTimer sends the next
// packet within it. Both are pointer conversions of the source.
type (
	onOffStartTimer OnOff
	onOffEmitTimer  OnOff
)

// Fire begins an ON period.
func (o *onOffStartTimer) Fire(units.Time) { (*OnOff)(o).beginOn() }

// Fire emits the next packet of the ON period.
func (o *onOffEmitTimer) Fire(units.Time) { (*OnOff)(o).emit() }

// Start begins with an OFF period so sources desynchronize.
func (o *OnOff) Start() {
	if o.Size <= 0 {
		o.Size = units.EthernetMTU
	}
	o.rng = o.Sim.RNG().Fork()
	o.scheduleOn()
}

func (o *OnOff) scheduleOn() {
	off := units.Time(o.rng.Pareto(1.5, float64(o.MeanOff)/3))
	o.Sim.AfterTimer(off, (*onOffStartTimer)(o))
}

func (o *OnOff) beginOn() {
	if o.Until > 0 && o.Sim.Now() >= o.Until {
		return
	}
	on := units.Time(o.rng.Exp(float64(o.MeanOn)))
	o.onEnd = o.Sim.Now() + on
	o.emit()
}

func (o *OnOff) emit() {
	if o.Sim.Now() >= o.onEnd {
		o.scheduleOn()
		return
	}
	p := o.Pool.Get()
	p.ID, p.Flow, p.Size = packet.NewID(), o.Flow, o.Size
	p.DSCP, p.SentAt, p.FrameSeq = o.DSCP, o.Sim.Now(), -1
	o.Sent++
	o.Next.Handle(p)
	o.Sim.AfterTimer(o.PeakRate.TxTime(o.Size), (*onOffEmitTimer)(o))
}

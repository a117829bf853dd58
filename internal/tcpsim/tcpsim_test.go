package tcpsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// timerFunc adapts a closure to sim.Timer. Tests only: production code
// schedules through long-lived Timer values.
type timerFunc func()

func (f timerFunc) Fire(units.Time) { f() }

// pipe delivers packets to a receiver after a fixed delay, optionally
// dropping chosen packet ids.
type pipe struct {
	s     *sim.Simulator
	delay units.Time
	drop  func(*packet.Packet) bool
	to    func(*packet.Packet)
	sent  int
	lost  int
}

func (p *pipe) Handle(pkt *packet.Packet) {
	p.sent++
	if p.drop != nil && p.drop(pkt) {
		p.lost++
		return
	}
	p.s.AfterTimer(p.delay, timerFunc(func() { p.to(pkt) }))
}

func newPair(t *testing.T, s *sim.Simulator, dropData func(*packet.Packet) bool) (*Sender, *Receiver, *int64) {
	t.Helper()
	var snd *Sender
	var rcv *Receiver
	delivered := new(int64)
	fwd := &pipe{s: s, delay: 5 * units.Millisecond, drop: dropData, to: func(p *packet.Packet) { rcv.Handle(p) }}
	rev := &pipe{s: s, delay: 5 * units.Millisecond, to: func(p *packet.Packet) { snd.HandleAck(p) }}
	snd = NewSender(s, 1, fwd)
	rcv = NewReceiver(s, 1, rev, func(n int64) { *delivered += n })
	return snd, rcv, delivered
}

func TestLosslessDelivery(t *testing.T) {
	s := sim.New(1)
	snd, _, delivered := newPair(t, s, nil)
	snd.Write(1 << 20)
	s.RunUntil(60 * units.Second)
	if *delivered != 1<<20 {
		t.Fatalf("delivered %d of %d bytes", *delivered, 1<<20)
	}
	if snd.Retransmits != 0 {
		t.Errorf("unexpected retransmits: %d", snd.Retransmits)
	}
}

func TestSingleLossRecovers(t *testing.T) {
	s := sim.New(1)
	dropped := false
	snd, _, delivered := newPair(t, s, func(p *packet.Packet) bool {
		if !dropped && p.Seq == 5*MSS {
			dropped = true
			return true
		}
		return false
	})
	snd.Write(200 * MSS)
	s.RunUntil(60 * units.Second)
	if *delivered != 200*MSS {
		t.Fatalf("delivered %d of %d bytes (rexmit=%d timeouts=%d una=%d)",
			*delivered, 200*MSS, snd.Retransmits, snd.Timeouts, snd.Delivered())
	}
	if snd.Retransmits == 0 {
		t.Error("expected at least one retransmission")
	}
}

func TestBurstLossRecovers(t *testing.T) {
	s := sim.New(1)
	// Drop a contiguous run of 10 segments on first transmission.
	seen := map[int64]bool{}
	snd, _, delivered := newPair(t, s, func(p *packet.Packet) bool {
		if p.Seq >= 20*MSS && p.Seq < 30*MSS && !seen[p.Seq] {
			seen[p.Seq] = true
			return true
		}
		return false
	})
	snd.Write(500 * MSS)
	s.RunUntil(120 * units.Second)
	if *delivered != 500*MSS {
		t.Fatalf("delivered %d of %d bytes (rexmit=%d timeouts=%d una=%d cwnd=%.0f)",
			*delivered, 500*MSS, snd.Retransmits, snd.Timeouts, snd.Delivered(), snd.Cwnd())
	}
}

func TestRandomLossSustainsThroughput(t *testing.T) {
	s := sim.New(7)
	rng := sim.NewRNG(42)
	snd, _, delivered := newPair(t, s, func(p *packet.Packet) bool {
		return rng.Float64() < 0.02
	})
	// Keep the app writing continuously.
	total := int64(3000 * MSS)
	snd.Write(total)
	s.RunUntil(300 * units.Second)
	if *delivered != total {
		t.Fatalf("delivered %d of %d bytes (rexmit=%d timeouts=%d una=%d cwnd=%.0f)",
			*delivered, total, snd.Retransmits, snd.Timeouts, snd.Delivered(), snd.Cwnd())
	}
}

package queue

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
)

// AFScheduler is the per-hop behaviour for an Assured Forwarding
// class: AF-marked packets share one RIO queue whose drop profile
// depends on their color, and are served ahead of a best-effort FIFO
// (a minimal model of an AF class with a bandwidth share on an
// otherwise best-effort port).
type AFScheduler struct {
	AF *RIO
	BE FIFO
}

// NewAFScheduler builds the scheduler with the given RIO profiles and
// best-effort queue limit.
func NewAFScheduler(in, out REDConfig, rand func() float64, beLimit int) *AFScheduler {
	return &AFScheduler{
		AF: newRIO(in, out, rand),
		BE: FIFO{MaxPackets: beLimit},
	}
}

// SetTap implements Tapped by forwarding to the RIO queue.
func (s *AFScheduler) SetTap(t ptrace.Tap, hop ptrace.HopID) { s.AF.SetTap(t, hop) }

// SetPool implements Pooled.
func (s *AFScheduler) SetPool(pl *packet.Pool) {
	pl.Lend(&s.AF.fifo.ring)
	pl.Lend(&s.BE.ring)
}

func isAF(d packet.DSCP) bool {
	return d == packet.AF11 || d == packet.AF12 || d == packet.AF13
}

// Enqueue admits p to the AF RIO queue or the best-effort FIFO.
func (s *AFScheduler) Enqueue(p *packet.Packet) bool {
	if isAF(p.DSCP) {
		return s.AF.Enqueue(p)
	}
	return s.BE.push(p)
}

// Dequeue serves the AF class first.
func (s *AFScheduler) Dequeue() *packet.Packet {
	if p := s.AF.Dequeue(); p != nil {
		return p
	}
	return s.BE.pop()
}

// Len reports total queued packets.
func (s *AFScheduler) Len() int { return s.AF.Len() + s.BE.len() }

// Classes reports the RIO in/out classes followed by best effort.
func (s *AFScheduler) Classes() []ClassStats {
	return append(s.AF.Classes(), s.BE.stats("be"))
}

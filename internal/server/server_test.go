package server

import (
	"testing"

	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

// tiny returns a small deterministic encoding for fast server tests.
func tiny(t *testing.T, rate units.BitRate) *video.Encoding {
	t.Helper()
	clip := video.Lost()
	enc := video.EncodeCBR(clip, rate)
	return enc
}

func TestPacedSendsWholeClip(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	enc := tiny(t, 1.0e6)
	srv := &Paced{Sim: s, Enc: enc, Flow: 1, Next: &sink}
	srv.Start()
	s.SetHorizon(units.FromSeconds(80))
	s.Run()
	var clip int64
	for _, f := range enc.Frames {
		clip += int64(f.Size)
	}
	if srv.SentBytes < clip {
		t.Errorf("sent %d bytes < clip %d", srv.SentBytes, clip)
	}
	// Every frame's fragments must cover its size.
	if sink.Count != srv.Sent {
		t.Errorf("sink %d != sent %d", sink.Count, srv.Sent)
	}
}

func TestPacedFragmentsAreMTUBounded(t *testing.T) {
	s := sim.New(1)
	maxSize := 0
	enc := tiny(t, 1.7e6)
	srv := &Paced{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if p.Size > maxSize {
				maxSize = p.Size
			}
			if p.FragCount <= 0 || p.FragIndex >= p.FragCount {
				t.Fatalf("bad fragment indexing: %v", p)
			}
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(5))
	s.Run()
	if maxSize > units.EthernetMTU {
		t.Errorf("fragment %d exceeds MTU", maxSize)
	}
}

func TestPacedSpreadsFramePackets(t *testing.T) {
	s := sim.New(1)
	var times []units.Time
	enc := tiny(t, 1.7e6)
	srv := &Paced{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if p.FrameSeq == 0 {
				times = append(times, s.Now())
			}
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(1))
	s.Run()
	if len(times) < 2 {
		t.Skip("frame 0 fits one packet")
	}
	span := times[len(times)-1] - times[0]
	if span < 10*units.Millisecond {
		t.Errorf("frame packets span only %v — not paced", span)
	}
}

func TestWMTUDPBackToBack(t *testing.T) {
	s := sim.New(1)
	var times []units.Time
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	srv := &WMTUDP{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			if p.FrameSeq == 0 {
				times = append(times, s.Now())
			}
		})}
	srv.Start()
	s.SetHorizon(units.FromSeconds(1))
	s.Run()
	if len(times) >= 2 {
		gap := times[1] - times[0]
		// At 10 Mbps host rate a 1500B packet takes 1.2 ms: bursty.
		if gap > 2*units.Millisecond {
			t.Errorf("inter-packet gap %v — WMT UDP should be back-to-back", gap)
		}
	}
}

func TestBurstFragmentsDatagramSemantics(t *testing.T) {
	s := sim.New(1)
	counts := map[int]int{}
	fragTotals := map[int]int{}
	enc := tiny(t, 1.7e6)
	srv := &burst{Sim: s, Enc: enc, Flow: 1,
		Next: packet.HandlerFunc(func(p *packet.Packet) {
			counts[p.FrameSeq]++
			fragTotals[p.FrameSeq] = p.FragCount
		})}
	srv.start()
	s.SetHorizon(units.FromSeconds(2))
	s.Run()
	for seq, n := range counts {
		if fragTotals[seq] != n {
			t.Fatalf("frame %d: sent %d fragments, declared %d", seq, n, fragTotals[seq])
		}
	}
}

// TestBurstAdaptationDeathSpiral reproduces the §4 narrative: policing
// losses plus low delay make the naive estimator RAISE its rate, which
// worsens the losses until it collapses and the cycle repeats.
func TestBurstAdaptationDeathSpiral(t *testing.T) {
	s := sim.New(7)
	enc := tiny(t, 1.0e6)
	received := 0
	// A crude inline policer: 1.1 Mbps, 3000B depth.
	var srv *burst
	bucketRate := 1.1e6
	level := 3000.0
	last := units.Time(0)
	pol := packet.HandlerFunc(func(p *packet.Packet) {
		now := s.Now()
		level += bucketRate / 8 * (now - last).Seconds()
		last = now
		if level > 3000 {
			level = 3000
		}
		if level >= float64(p.Size) {
			level -= float64(p.Size)
			received++
		}
	})
	srv = &burst{Sim: s, Enc: enc, Flow: 1, Next: pol, Adapt: true}
	sent := 0
	srv.setFeedback(func() (float64, units.Time) {
		loss := 0.0
		if srv.Sent > sent {
			loss = 1 - float64(received)/float64(srv.Sent)
		}
		sent = srv.Sent
		return loss, 10 * units.Millisecond
	})
	srv.start()
	s.SetHorizon(units.FromSeconds(70))
	s.Run()
	// The multiplier history must show both escalation above 1.5 and
	// collapse to 0.3 — the cycle the paper describes.
	var up, down bool
	for _, m := range srv.Multipliers {
		if m > 1.5 {
			up = true
		}
		if m <= 0.31 {
			down = true
		}
	}
	if !up || !down {
		t.Errorf("no death spiral: multipliers %v", srv.Multipliers[:min(len(srv.Multipliers), 20)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestWMTTCPThinsUnderBackpressure(t *testing.T) {
	s := sim.New(1)
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	// A sender whose output goes nowhere: ACKs never come back, so the
	// backlog grows and thinning must kick in.
	snd := tcpsim.NewSender(s, 1, packet.HandlerFunc(func(*packet.Packet) {}))
	asm := &client.StreamAssembler{}
	srv := &WMTTCP{Sim: s, Enc: enc, Sender: snd, Asm: asm}
	srv.Start()
	s.SetHorizon(units.FromSeconds(30))
	s.Run()
	if srv.FramesThinned == 0 {
		t.Error("no thinning despite a dead connection")
	}
	if srv.FramesSent+srv.FramesThinned == 0 {
		t.Error("nothing happened")
	}
}

func TestAdaptiveStepsDownOnLoss(t *testing.T) {
	s := sim.New(3)
	clip := video.Lost()
	encs := []*video.Encoding{
		video.EncodeCBR(clip, 0.5e6),
		video.EncodeCBR(clip, 1.0e6),
		video.EncodeCBR(clip, 1.5e6),
	}
	var sink packet.Sink
	srv := &adaptive{Sim: s, Encs: encs, Flow: 1, Next: &sink}
	loss := 0.10
	srv.setFeedback(func() float64 { return loss })
	srv.start()
	if srv.level != 2 {
		t.Fatalf("must start at the top level, got %d", srv.level)
	}
	s.RunUntil(units.FromSeconds(5))
	if srv.level != 0 {
		t.Errorf("level = %d after sustained loss, want 0", srv.level)
	}
	loss = 0.0
	s.RunUntil(units.FromSeconds(15))
	if srv.level != 2 {
		t.Errorf("level = %d after loss cleared, want 2", srv.level)
	}
	if srv.Switches < 4 {
		t.Errorf("switches = %d", srv.Switches)
	}
}

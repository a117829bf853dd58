package tcpsim

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestDeliveryProperties drives a connection through random loss and
// checks the fundamental transport invariants:
//
//  1. delivered byte count never exceeds what was written;
//  2. delivery is exactly in-order and gapless (cumulative);
//  3. with loss below a sane bound the transfer completes.
func TestDeliveryProperties(t *testing.T) {
	f := func(seed uint64, lossPct uint8) bool {
		loss := float64(lossPct%15) / 100 // 0..14%
		s := sim.New(seed)
		rng := sim.NewRNG(seed ^ 0x10551)
		var snd *Sender
		var rcv *Receiver
		var delivered int64
		fwd := &pipe{s: s, delay: 5 * units.Millisecond,
			drop: func(p *packet.Packet) bool { return rng.Float64() < loss },
			to:   func(p *packet.Packet) { rcv.Handle(p) }}
		rev := &pipe{s: s, delay: 5 * units.Millisecond,
			to: func(p *packet.Packet) { snd.HandleAck(p) }}
		snd = NewSender(s, 1, fwd)
		rcv = NewReceiver(s, 1, rev, func(n int64) {
			if n <= 0 {
				t.Fatal("non-positive delivery")
			}
			delivered += n
		})
		total := int64(500 * mss)
		snd.Write(total)
		s.RunUntil(600 * units.Second)
		if delivered > total {
			return false
		}
		return delivered == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLimitedTransmitReducesTimeouts(t *testing.T) {
	run := func(lt bool) int {
		s := sim.New(99)
		rng := sim.NewRNG(424242)
		var snd *Sender
		var rcv *Receiver
		fwd := &pipe{s: s, delay: 5 * units.Millisecond,
			drop: func(p *packet.Packet) bool { return rng.Float64() < 0.03 },
			to:   func(p *packet.Packet) { rcv.Handle(p) }}
		rev := &pipe{s: s, delay: 5 * units.Millisecond,
			to: func(p *packet.Packet) { snd.HandleAck(p) }}
		snd = NewSender(s, 1, fwd)
		snd.LimitedTransmit = lt
		rcv = NewReceiver(s, 1, rev, func(int64) {})
		// App-limited writes: 3 KB every 33 ms, the streaming pattern
		// whose tiny windows starve fast retransmit of dupacks.
		for i := 0; i < 900; i++ {
			i := i
			s.AtTimer(units.Time(i)*33*units.Millisecond, timerFunc(func() { snd.Write(3000) }))
		}
		s.RunUntil(60 * units.Second)
		return snd.Timeouts
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("limited transmit did not reduce timeouts: with=%d without=%d", with, without)
	}
}

func TestRTTEstimation(t *testing.T) {
	s := sim.New(1)
	snd, _, _ := newPair(t, s, nil)
	snd.Write(100 * mss)
	s.RunUntil(30 * units.Second)
	// Path RTT is exactly 10 ms (5 ms each way); srtt must converge.
	if snd.srtt < 9*units.Millisecond || snd.srtt > 12*units.Millisecond {
		t.Errorf("srtt = %v, want ≈10ms", snd.srtt)
	}
	if snd.rto < 200*units.Millisecond {
		t.Errorf("rto = %v below the conventional floor", snd.rto)
	}
}

func TestReceiverDuplicateData(t *testing.T) {
	s := sim.New(1)
	var delivered int64
	var acks int
	rcv := NewReceiver(s, 1, packet.HandlerFunc(func(p *packet.Packet) {
		acks++
		if p.Ack > 2*mss {
			t.Fatalf("ack %d beyond delivered data", p.Ack)
		}
	}), func(n int64) { delivered += n })
	seg := func(seq int64) *packet.Packet {
		return &packet.Packet{Flow: 1, Proto: packet.TCP, Size: mss + HeaderSize, Seq: seq}
	}
	rcv.Handle(seg(0))
	rcv.Handle(seg(0)) // exact duplicate
	rcv.Handle(seg(mss))
	rcv.Handle(seg(mss)) // duplicate again
	if delivered != 2*mss {
		t.Errorf("delivered %d, want %d (duplicates must not double-count)", delivered, 2*mss)
	}
	if acks != 4 {
		t.Errorf("every segment must be acked: %d", acks)
	}
}

func TestReceiverOutOfOrderReassembly(t *testing.T) {
	s := sim.New(1)
	var delivered int64
	rcv := NewReceiver(s, 1, packet.HandlerFunc(func(*packet.Packet) {}), func(n int64) { delivered += n })
	seg := func(seq int64) *packet.Packet {
		return &packet.Packet{Flow: 1, Proto: packet.TCP, Size: mss + HeaderSize, Seq: seq}
	}
	rcv.Handle(seg(2 * mss))
	rcv.Handle(seg(mss))
	if delivered != 0 {
		t.Fatalf("delivered %d before the stream head arrived", delivered)
	}
	rcv.Handle(seg(0))
	if delivered != 3*mss {
		t.Errorf("delivered %d after hole filled, want %d", delivered, 3*mss)
	}
}

func TestBacklogAccounting(t *testing.T) {
	s := sim.New(1)
	snd := NewSender(s, 1, packet.HandlerFunc(func(*packet.Packet) {}))
	snd.Write(100_000)
	// cwnd 2*MSS: only 2920 bytes leave immediately.
	if got := snd.Backlog(); got != 100_000-2*mss {
		t.Errorf("backlog = %d", got)
	}
	if snd.Unacked() != 2*mss {
		t.Errorf("unacked = %d", snd.Unacked())
	}
}

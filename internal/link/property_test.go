package link

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLinkNeverReorders: a FIFO-scheduled link delivers packets in
// arrival order for any arrival pattern and sizes.
func TestLinkNeverReorders(t *testing.T) {
	f := func(gaps []uint16, sizes []uint8) bool {
		if len(gaps) == 0 {
			return true
		}
		s := sim.New(1)
		var got []uint64
		l := New(s, 2*units.Mbps, 3*units.Millisecond, queue.NewSingleFIFO(0),
			packet.HandlerFunc(func(p *packet.Packet) { got = append(got, p.ID) }))
		now := units.Time(0)
		for i, g := range gaps {
			now += units.Time(g) * units.Microsecond
			size := 64
			if i < len(sizes) {
				size = int(sizes[i])%1436 + 64
			}
			id := uint64(i + 1)
			s.AtTimer(now, timerFunc(func() {
				l.Handle(&packet.Packet{ID: id, Size: size})
			}))
		}
		s.Run()
		if len(got) != len(gaps) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLinkConservesBytes: everything enqueued on an unbounded link is
// delivered, byte for byte.
func TestLinkConservesBytes(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	l := New(s, units.Mbps, units.Millisecond, queue.NewSingleFIFO(0), &sink)
	var sent int64
	rng := sim.NewRNG(3)
	now := units.Time(0)
	for i := 0; i < 500; i++ {
		now += units.Time(rng.Intn(20000)) * units.Microsecond
		size := rng.Intn(1400) + 100
		sent += int64(size)
		s.AtTimer(now, timerFunc(func() { l.Handle(&packet.Packet{Size: size}) }))
	}
	s.Run()
	if sink.Bytes != sent {
		t.Errorf("delivered %d of %d bytes", sink.Bytes, sent)
	}
	if l.SentBytes != sent {
		t.Errorf("link counted %d of %d bytes", l.SentBytes, sent)
	}
}

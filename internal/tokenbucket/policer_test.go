package tokenbucket

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

func mkPkt(size int) *packet.Packet {
	return &packet.Packet{Size: size, FrameSeq: -1}
}

func TestPolicerMarksAndForwards(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	p := NewPolicer(s, units.Mbps, 3000, packet.EF, &sink)
	pk := mkPkt(1500)
	p.Handle(pk)
	if sink.Count != 1 {
		t.Fatal("conformant packet not forwarded")
	}
	if pk.DSCP != packet.EF {
		t.Errorf("DSCP = %v, want EF", pk.DSCP)
	}
	if p.Passed != 1 || p.Dropped != 0 {
		t.Errorf("counters: passed=%d dropped=%d", p.Passed, p.Dropped)
	}
}

func TestPolicerDropsNonConformant(t *testing.T) {
	s := sim.New(1)
	var sink, drops packet.Sink
	p := NewPolicer(s, units.Mbps, 3000, packet.EF, &sink)
	p.OnDrop(&drops)
	p.Handle(mkPkt(3000)) // drains the bucket
	p.Handle(mkPkt(1500)) // must drop: no time has passed
	if sink.Count != 1 || drops.Count != 1 {
		t.Errorf("sink=%d drops=%d", sink.Count, drops.Count)
	}
	if got := p.LossFraction(); got != 0.5 {
		t.Errorf("LossFraction = %v", got)
	}
	if p.DroppedBytes != 1500 || p.PassedBytes != 3000 {
		t.Errorf("bytes: passed=%d dropped=%d", p.PassedBytes, p.DroppedBytes)
	}
}

func TestPolicerConservation(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	p := NewPolicer(s, 2*units.Mbps, 3000, packet.EF, &sink)
	n := 1000
	rng := sim.NewRNG(5)
	now := units.Time(0)
	for i := 0; i < n; i++ {
		now += units.Time(rng.Intn(3000)) * units.Microsecond
		final := now
		s.AtTimer(final, timerFunc(func() { p.Handle(mkPkt(1500)) }))
	}
	s.Run()
	if p.Passed+p.Dropped != n {
		t.Errorf("conservation: %d + %d != %d", p.Passed, p.Dropped, n)
	}
	if sink.Count != p.Passed {
		t.Errorf("forwarded %d != passed %d", sink.Count, p.Passed)
	}
}

func TestShaperDelaysInsteadOfDropping(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	var arrivals []units.Time
	sh := NewShaper(s, 8*units.Mbps, 3000, packet.EF, packet.HandlerFunc(func(p *packet.Packet) {
		sink.Handle(p)
		arrivals = append(arrivals, s.Now())
	}))
	// Three back-to-back 1500B packets: the first two conform (bucket
	// 3000), the third must be delayed ~1500µs (1 B/µs refill).
	s.AtTimer(0, timerFunc(func() {
		sh.Handle(mkPkt(1500))
		sh.Handle(mkPkt(1500))
		sh.Handle(mkPkt(1500))
	}))
	s.Run()
	if sink.Count != 3 {
		t.Fatalf("delivered %d of 3", sink.Count)
	}
	if sh.Dropped != 0 {
		t.Errorf("shaper dropped %d", sh.Dropped)
	}
	if arrivals[2] < 1400*units.Microsecond {
		t.Errorf("third packet released too early: %v", arrivals[2])
	}
	if sh.Delayed == 0 {
		t.Error("no packet recorded as delayed")
	}
}

func TestShaperPreservesOrder(t *testing.T) {
	s := sim.New(1)
	var got []uint64
	sh := NewShaper(s, units.Mbps, 3000, packet.EF, packet.HandlerFunc(func(p *packet.Packet) {
		got = append(got, p.ID)
	}))
	s.AtTimer(0, timerFunc(func() {
		for i := 1; i <= 20; i++ {
			pk := mkPkt(1000)
			pk.ID = uint64(i)
			sh.Handle(pk)
		}
	}))
	s.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("order violated at %d: %d", i, id)
		}
	}
}

func TestShaperDropsOversized(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	sh := NewShaper(s, units.Mbps, 3000, packet.EF, &sink)
	s.AtTimer(0, timerFunc(func() {
		sh.Handle(mkPkt(3000)) // drain so the next goes to the queue path
		sh.Handle(mkPkt(4000)) // can never conform
	}))
	s.Run()
	if sh.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", sh.Dropped)
	}
	if sink.Count != 1 {
		t.Errorf("delivered = %d, want 1", sink.Count)
	}
}

func TestShaperQueueLimit(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	sh := NewShaper(s, 100*units.Kbps, 3000, packet.EF, &sink)
	sh.SetQueueLimit(5)
	s.AtTimer(0, timerFunc(func() {
		for i := 0; i < 20; i++ {
			sh.Handle(mkPkt(1500))
		}
	}))
	s.RunUntil(100 * units.Millisecond)
	if sh.Dropped == 0 {
		t.Error("queue limit never enforced")
	}
	if sh.QueueLen() > 5 {
		t.Errorf("queue length %d exceeds limit", sh.QueueLen())
	}
}

// TestShaperOutputConforms verifies the defining shaper property: the
// released stream itself conforms to the shaping profile.
func TestShaperOutputConforms(t *testing.T) {
	s := sim.New(1)
	check := NewBucket(units.Mbps, 3001) // +1: release rounding slack
	violations := 0
	sh := NewShaper(s, units.Mbps, 3000, packet.EF, packet.HandlerFunc(func(p *packet.Packet) {
		if !check.Conform(s.Now(), p.Size) {
			violations++
		}
	}))
	rng := sim.NewRNG(9)
	now := units.Time(0)
	for i := 0; i < 500; i++ {
		now += units.Time(rng.Intn(5000)) * units.Microsecond
		s.AtTimer(now, timerFunc(func() { sh.Handle(mkPkt(1500)) }))
	}
	s.Run()
	if violations != 0 {
		t.Errorf("%d released packets violate the profile", violations)
	}
}

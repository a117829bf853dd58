package link

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// timerFunc adapts a closure to sim.Timer. Tests only: production code
// schedules through long-lived Timer values.
type timerFunc func()

func (f timerFunc) Fire(units.Time) { f() }

func TestLinkSerializationTiming(t *testing.T) {
	s := sim.New(1)
	var at units.Time
	l := New(s, 2*units.Mbps, 0, nil, packet.HandlerFunc(func(*packet.Packet) { at = s.Now() }))
	s.AtTimer(0, timerFunc(func() { l.Handle(&packet.Packet{Size: 1500}) }))
	s.Run()
	// 1500B at 2Mbps = 6ms.
	if at != 6*units.Millisecond {
		t.Errorf("delivery at %v, want 6ms", at)
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	s := sim.New(1)
	var at units.Time
	l := New(s, 2*units.Mbps, 10*units.Millisecond, nil,
		packet.HandlerFunc(func(*packet.Packet) { at = s.Now() }))
	s.AtTimer(0, timerFunc(func() { l.Handle(&packet.Packet{Size: 1500}) }))
	s.Run()
	if at != 16*units.Millisecond {
		t.Errorf("delivery at %v, want 16ms", at)
	}
}

func TestLinkQueuesBackToBack(t *testing.T) {
	s := sim.New(1)
	var times []units.Time
	l := New(s, 2*units.Mbps, 0, nil,
		packet.HandlerFunc(func(*packet.Packet) { times = append(times, s.Now()) }))
	s.AtTimer(0, timerFunc(func() {
		l.Handle(&packet.Packet{Size: 1500})
		l.Handle(&packet.Packet{Size: 1500})
		l.Handle(&packet.Packet{Size: 1500})
	}))
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	for i, want := range []units.Time{6, 12, 18} {
		if times[i] != want*units.Millisecond {
			t.Errorf("packet %d at %v, want %dms", i, times[i], want)
		}
	}
	if l.Sent != 3 || l.SentBytes != 4500 {
		t.Errorf("stats: %d pkts %d bytes", l.Sent, l.SentBytes)
	}
}

func TestLinkEFPriority(t *testing.T) {
	s := sim.New(1)
	var order []packet.DSCP
	l := New(s, 2*units.Mbps, 0, queue.NewEFPriority(0, 0),
		packet.HandlerFunc(func(p *packet.Packet) { order = append(order, p.DSCP) }))
	s.AtTimer(0, timerFunc(func() {
		// First BE packet grabs the wire; the queued EF packet must
		// jump ahead of the remaining BE packets.
		l.Handle(&packet.Packet{Size: 1500, DSCP: packet.BestEffort})
		l.Handle(&packet.Packet{Size: 1500, DSCP: packet.BestEffort})
		l.Handle(&packet.Packet{Size: 1500, DSCP: packet.EF})
	}))
	s.Run()
	want := []packet.DSCP{packet.BestEffort, packet.EF, packet.BestEffort}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLinkUtilization(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	l := New(s, units.Mbps, 0, nil, &sink)
	s.AtTimer(0, timerFunc(func() { l.Handle(&packet.Packet{Size: 12500}) })) // 100ms at 1Mbps
	s.AtTimer(200*units.Millisecond, timerFunc(func() {}))                    // extend the clock
	s.Run()
	u := l.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CIR != 2e6 || r.Bc != 2e6 || r.Be != 0 {
			t.Errorf("row %s: CIR=%v Bc=%d Be=%d", r.Name, r.CIR, r.Bc, r.Be)
		}
		if r.Tc() != units.Second {
			t.Errorf("row %s: Tc = %v, want 1s", r.Name, r.Tc())
		}
	}
	kinds := map[string]int{}
	for _, r := range rows {
		kinds[r.Kind]++
	}
	if kinds["HSSI"] != 2 || kinds["V.35"] != 2 {
		t.Errorf("interface kinds: %v", kinds)
	}
}

func TestFrameRelayEmulatesCIR(t *testing.T) {
	s := sim.New(1)
	var at units.Time
	fr := NewFrameRelay(s, Table1()[0], 0, nil,
		packet.HandlerFunc(func(*packet.Packet) { at = s.Now() }))
	s.AtTimer(0, timerFunc(func() { fr.Handle(&packet.Packet{Size: 2500}) })) // 10ms at 2Mbps
	s.Run()
	if at != 10*units.Millisecond {
		t.Errorf("delivered at %v, want 10ms", at)
	}
}

func TestJitterPreservesOrder(t *testing.T) {
	s := sim.New(3)
	var ids []uint64
	j := &Jitter{Sim: s, Max: 10 * units.Millisecond,
		Next: packet.HandlerFunc(func(p *packet.Packet) { ids = append(ids, p.ID) })}
	for i := 1; i <= 200; i++ {
		i := i
		s.AtTimer(units.Time(i)*units.Millisecond, timerFunc(func() {
			j.Handle(&packet.Packet{ID: uint64(i), Size: 100})
		}))
	}
	s.Run()
	if len(ids) != 200 {
		t.Fatalf("delivered %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("reordered: %d before %d", ids[i-1], ids[i])
		}
	}
}

func TestJitterZeroMaxPassthrough(t *testing.T) {
	s := sim.New(1)
	var at units.Time
	j := &Jitter{Sim: s, Max: 0,
		Next: packet.HandlerFunc(func(*packet.Packet) { at = s.Now() })}
	s.AtTimer(units.Second, timerFunc(func() { j.Handle(&packet.Packet{Size: 1}) }))
	s.Run()
	if at != units.Second {
		t.Errorf("zero jitter delayed to %v", at)
	}
}

func TestLossDropsFraction(t *testing.T) {
	s := sim.New(5)
	var sink packet.Sink
	l := &Loss{Sim: s, P: 0.3, Next: &sink}
	n := 20000
	s.AtTimer(0, timerFunc(func() {
		for i := 0; i < n; i++ {
			l.Handle(&packet.Packet{Size: 1})
		}
	}))
	s.Run()
	frac := float64(l.Dropped) / float64(n)
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("loss fraction = %v, want ~0.3", frac)
	}
	if sink.Count+l.Dropped != n {
		t.Error("conservation violated")
	}
}

package tokenbucket

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestSRTCMColorsInOrder(t *testing.T) {
	// CIR 8 Mbps (1 B/µs), CBS 3000, EBS 3000. Both buckets full at 0.
	m := NewSRTCM(8*units.Mbps, 3000, 3000)
	if c := m.mark(0, 3000); c != packet.Green {
		t.Errorf("first packet %v, want green", c)
	}
	if c := m.mark(0, 3000); c != packet.Yellow {
		t.Errorf("second packet %v, want yellow (excess bucket)", c)
	}
	if c := m.mark(0, 3000); c != packet.Red {
		t.Errorf("third packet %v, want red", c)
	}
}

func TestSRTCMCommittedRefillFeedsExcess(t *testing.T) {
	m := NewSRTCM(8*units.Mbps, 1000, 2000)
	// Drain both.
	m.mark(0, 1000)
	m.mark(0, 1000)
	m.mark(0, 1000)
	// After 4 ms (4000 bytes of tokens at 1B/µs): C refills to 1000,
	// overflow 3000 goes to E capped at 2000.
	now := 4 * units.Millisecond
	if c := m.mark(now, 1000); c != packet.Green {
		t.Errorf("want green after refill, got %v", c)
	}
	if c := m.mark(now, 2000); c != packet.Yellow {
		t.Errorf("want yellow from excess, got %v", c)
	}
	if c := m.mark(now, 500); c != packet.Red {
		t.Errorf("want red when both drained, got %v", c)
	}
}

func TestColorToDSCP(t *testing.T) {
	if colorToDSCP(packet.Green) != packet.AF11 ||
		colorToDSCP(packet.Yellow) != packet.AF12 ||
		colorToDSCP(packet.Red) != packet.AF13 {
		t.Error("AF mapping wrong")
	}
}

func TestAFMarkerRemarksAndCounts(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	m := NewAFMarkerSR(s, NewSRTCM(8*units.Mbps, 3000, 3000), &sink)
	for i := 0; i < 3; i++ {
		m.Handle(mkPkt(3000))
	}
	if sink.Count != 3 {
		t.Fatalf("AF marker must forward everything, got %d", sink.Count)
	}
	if m.Green != 1 || m.Yellow != 1 || m.Red != 1 {
		t.Errorf("counts G=%d Y=%d R=%d", m.Green, m.Yellow, m.Red)
	}
	if sink.Last.DSCP != packet.AF13 {
		t.Errorf("last DSCP = %v, want AF13", sink.Last.DSCP)
	}
}

// TestSRTCMLongRunRates: over a long saturated run, green bytes track
// CIR — the marker's contract.
func TestSRTCMLongRunRates(t *testing.T) {
	m := NewSRTCM(2*units.Mbps, 3000, 6000)
	var green, total int64
	now := units.Time(0)
	for i := 0; i < 100000; i++ {
		now += 200 * units.Microsecond // 60 Mbps offered
		if m.mark(now, 1500) == packet.Green {
			green += 1500
		}
		total += 1500
	}
	wantGreen := int64(float64(2*units.Mbps) / 8 * now.Seconds())
	ratio := float64(green) / float64(wantGreen)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("green bytes %d, want ≈%d (ratio %.3f)", green, wantGreen, ratio)
	}
}

func BenchmarkSRTCMMark(b *testing.B) {
	m := NewSRTCM(2*units.Mbps, 3000, 6000)
	now := units.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2 * units.Millisecond
		m.mark(now, 1500)
	}
}

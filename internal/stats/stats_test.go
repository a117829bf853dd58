package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/units"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.add(v)
	}
	if s.n() != 5 || s.Mean() != 3 {
		t.Errorf("n=%d mean=%v", s.n(), s.Mean())
	}
	if math.Abs(s.variance()-2) > 1e-9 {
		t.Errorf("var = %v, want 2", s.variance())
	}
	if s.min() != 1 || s.max() != 5 {
		t.Errorf("min/max: %v %v", s.min(), s.max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.stddev() != 0 || s.Percentile(50) != 0 || s.CI95() != 0 {
		t.Error("empty summary must report zeros")
	}
}

func TestPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 0.01 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(99); got < 98 || got > 100 {
		t.Errorf("p99 = %v", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAfterSortStillCorrect(t *testing.T) {
	var s Summary
	s.add(5)
	_ = s.Percentile(50) // forces sort
	s.add(1)
	if s.min() != 1 {
		t.Error("sample added after sort lost")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var a, b Summary
	for i := 0; i < 10; i++ {
		a.add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		b.add(float64(i % 3))
	}
	if b.CI95() >= a.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", a.CI95(), b.CI95())
	}
}

type fakeClock struct{ now units.Time }

func (c *fakeClock) Now() units.Time { return c.now }

func TestDelayCollector(t *testing.T) {
	clk := &fakeClock{}
	var sink packet.Sink
	d := &DelayCollector{Clock: clk, Next: &sink}
	// Three packets sent at t=0,10ms,20ms arriving with 5,6,8 ms delay.
	arrivals := []units.Time{5, 16, 28}
	sent := []units.Time{0, 10, 20}
	for i := range arrivals {
		clk.now = arrivals[i] * units.Millisecond
		d.Handle(&packet.Packet{ID: uint64(i + 1), SentAt: sent[i] * units.Millisecond, Size: 100})
	}
	if sink.Count != 3 {
		t.Fatal("not forwarded")
	}
	if n := d.Delay.n(); n != 3 {
		t.Fatalf("delay samples = %d", n)
	}
	wantMean := (0.005 + 0.006 + 0.008) / 3
	if math.Abs(d.Delay.Mean()-wantMean) > 1e-9 {
		t.Errorf("delay mean = %v, want %v", d.Delay.Mean(), wantMean)
	}
	// Gaps: 11ms, 12ms -> one jitter sample of 1ms.
	if d.Jitter.n != 1 || math.Abs(d.Jitter.Mean()-0.001) > 1e-9 {
		t.Errorf("jitter: n=%d mean=%v", d.Jitter.n, d.Jitter.Mean())
	}
}

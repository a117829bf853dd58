package traffic

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestCBRRate(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	c := &CBR{Sim: s, Rate: 2 * units.Mbps, Size: 1500, Next: &sink}
	c.Start()
	s.SetHorizon(10 * units.Second)
	s.Run()
	gotRate := float64(sink.Bytes) * 8 / 10
	if math.Abs(gotRate-2e6) > 2e4 {
		t.Errorf("rate = %v, want ~2e6", gotRate)
	}
}

func TestCBRDefaultSize(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	c := &CBR{Sim: s, Rate: units.Mbps, Next: &sink}
	c.Start()
	s.SetHorizon(units.Second)
	s.Run()
	if sink.Last.Size != units.EthernetMTU {
		t.Errorf("default size = %d", sink.Last.Size)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	s := sim.New(2)
	var sink packet.Sink
	p := &Poisson{Sim: s, Rate: 5 * units.Mbps, Size: 1500, Next: &sink}
	p.Start()
	s.SetHorizon(60 * units.Second)
	s.Run()
	gotRate := float64(sink.Bytes) * 8 / 60
	if math.Abs(gotRate-5e6)/5e6 > 0.05 {
		t.Errorf("rate = %v, want ~5e6 ±5%%", gotRate)
	}
}

func TestPoissonInterArrivalVariability(t *testing.T) {
	s := sim.New(3)
	var times []units.Time
	p := &Poisson{Sim: s, Rate: units.Mbps, Size: 1500,
		Next: packet.HandlerFunc(func(*packet.Packet) { times = append(times, s.Now()) })}
	p.Start()
	s.SetHorizon(30 * units.Second)
	s.Run()
	if len(times) < 100 {
		t.Fatalf("too few arrivals: %d", len(times))
	}
	// Coefficient of variation of exponential inter-arrivals ≈ 1.
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, float64(times[i]-times[i-1]))
	}
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sumSq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sumSq/float64(len(gaps))) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("CV = %v, want ~1 (exponential)", cv)
	}
}

// TestPacketIDsUnique: two sources interleaving in one run take ids
// from the run's pool, which numbers packets 1, 2, 3, … in emission
// order, so none repeats.
func TestPacketIDsUnique(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	var last uint64
	n := 0
	next := packet.HandlerFunc(func(p *packet.Packet) {
		if p.ID != last+1 {
			t.Fatalf("packet %d: id %d after id %d", n, p.ID, last)
		}
		last = p.ID
		n++
		pool.Put(p)
	})
	(&CBR{Sim: s, Rate: 2 * units.Mbps, Size: 1500, Flow: 1, Next: next, Pool: pool}).Start()
	(&Poisson{Sim: s, Rate: 2 * units.Mbps, Size: 1500, Flow: 2, Next: next, Pool: pool}).Start()
	s.RunUntil(3 * units.Second)
	if n < 1000 {
		t.Fatalf("only %d packets emitted", n)
	}
}

package queue

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// testRED is the classic 1993 profile scaled for a small router buffer.
var testRED = REDConfig{MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.002, MaxSize: 60}

// The TestRED* tests check redTest, the drop decision, through a RIO
// whose two profiles are equal: every packet is then judged by one RED
// profile against the whole queue's average.

func TestREDNoDropsWhenIdle(t *testing.T) {
	rng := sim.NewRNG(1)
	r := newRIO(testRED, testRED, rng.Float64)
	// Alternate enqueue/dequeue: average queue stays ~0.
	for i := 0; i < 1000; i++ {
		if !r.Enqueue(pk(1500, 0)) {
			t.Fatal("RED dropped at empty queue")
		}
		r.Dequeue()
	}
	if r.DropsIn != 0 || r.DropsOut != 0 {
		t.Errorf("drops at idle: in=%d out=%d", r.DropsIn, r.DropsOut)
	}
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	rng := sim.NewRNG(2)
	r := newRIO(testRED, testRED, rng.Float64)
	drops := 0
	for i := 0; i < 2000; i++ {
		// Two arrivals per departure: queue builds.
		if !r.Enqueue(pk(1500, 0)) {
			drops++
		}
		if !r.Enqueue(pk(1500, 0)) {
			drops++
		}
		r.Dequeue()
	}
	if drops == 0 {
		t.Error("RED never dropped under overload")
	}
	if r.Len() > testRED.MaxSize {
		t.Errorf("queue exceeded hard limit: %d", r.Len())
	}
}

func TestREDAverageTracksQueue(t *testing.T) {
	rng := sim.NewRNG(3)
	cfg := testRED
	cfg.Wq = 0.5 // fast EWMA for the test
	r := newRIO(cfg, cfg, rng.Float64)
	for i := 0; i < 10; i++ {
		r.Enqueue(pk(1, 0))
	}
	if r.avgIn <= 0 || r.avgAll <= 0 {
		t.Errorf("averages did not rise: in=%v all=%v", r.avgIn, r.avgAll)
	}
}

func TestREDNeedsRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newRIO(testRED, testRED, nil)
}

func TestRIOProtectsGreen(t *testing.T) {
	rng := sim.NewRNG(4)
	in := REDConfig{MinTh: 40, MaxTh: 55, MaxP: 0.02, Wq: 0.02, MaxSize: 60}
	out := REDConfig{MinTh: 5, MaxTh: 15, MaxP: 0.5, Wq: 0.02, MaxSize: 60}
	r := newRIO(in, out, rng.Float64)
	greenDrops, yellowDrops := 0, 0
	for i := 0; i < 4000; i++ {
		g := pk(1500, packet.AF11)
		g.Color = packet.Green
		y := pk(1500, packet.AF12)
		y.Color = packet.Yellow
		if !r.Enqueue(g) {
			greenDrops++
		}
		if !r.Enqueue(y) {
			yellowDrops++
		}
		r.Dequeue()
	}
	if yellowDrops == 0 {
		t.Fatal("out-of-profile traffic never dropped under overload")
	}
	if greenDrops*5 > yellowDrops {
		t.Errorf("green not protected: green=%d yellow=%d", greenDrops, yellowDrops)
	}
	if r.DropsIn != greenDrops || r.DropsOut != yellowDrops {
		t.Errorf("counters: in=%d out=%d", r.DropsIn, r.DropsOut)
	}
}

func TestRIODequeueTracksGreenCount(t *testing.T) {
	rng := sim.NewRNG(5)
	r := newRIO(testRED, testRED, rng.Float64)
	g := pk(1, packet.AF11)
	g.Color = packet.Green
	r.Enqueue(g)
	if r.inQueued != 1 {
		t.Fatalf("inQueued = %d", r.inQueued)
	}
	r.Dequeue()
	if r.inQueued != 0 {
		t.Errorf("inQueued after dequeue = %d", r.inQueued)
	}
}

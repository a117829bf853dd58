package queue

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func afPkt(d packet.DSCP, c packet.Color) *packet.Packet {
	return &packet.Packet{Size: 1500, DSCP: d, Color: c}
}

func TestAFSchedulerClassifies(t *testing.T) {
	rng := sim.NewRNG(1)
	s := NewAFScheduler(testRED, testRED, rng.Float64, 10)
	s.Enqueue(afPkt(packet.AF11, packet.Green))
	s.Enqueue(afPkt(packet.BestEffort, packet.Green))
	if s.AF.Len() != 1 || s.BE.len() != 1 {
		t.Errorf("classification wrong: af=%d be=%d", s.AF.Len(), s.BE.len())
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestAFSchedulerServesAFFirst(t *testing.T) {
	rng := sim.NewRNG(2)
	s := NewAFScheduler(testRED, testRED, rng.Float64, 10)
	be := afPkt(packet.BestEffort, packet.Green)
	af := afPkt(packet.AF12, packet.Yellow)
	s.Enqueue(be)
	s.Enqueue(af)
	if got := s.Dequeue(); got != af {
		t.Error("AF not served first")
	}
	if got := s.Dequeue(); got != be {
		t.Error("BE lost")
	}
}

func TestAFSchedulerAllAFClassesShareQueue(t *testing.T) {
	rng := sim.NewRNG(3)
	s := NewAFScheduler(testRED, testRED, rng.Float64, 10)
	for _, d := range []packet.DSCP{packet.AF11, packet.AF12, packet.AF13} {
		if !s.Enqueue(afPkt(d, packet.Green)) {
			t.Fatalf("%v rejected at empty queue", d)
		}
	}
	if s.AF.Len() != 3 {
		t.Errorf("AF queue holds %d", s.AF.Len())
	}
}

func TestAFSchedulerBELimit(t *testing.T) {
	rng := sim.NewRNG(4)
	s := NewAFScheduler(testRED, testRED, rng.Float64, 2)
	s.Enqueue(afPkt(packet.BestEffort, packet.Green))
	s.Enqueue(afPkt(packet.BestEffort, packet.Green))
	if s.Enqueue(afPkt(packet.BestEffort, packet.Green)) {
		t.Error("BE limit ignored")
	}
}

package queue

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func pkt(size int, d packet.DSCP) *packet.Packet {
	return &packet.Packet{Size: size, DSCP: d}
}

// serveBacklogged alternates sustained backlog with service: each step
// enqueues one packet per source then dequeues one packet, so classes
// stay backlogged while the scheduler picks the order. Returns bytes
// served per DSCP over n steps.
func serveBacklogged(t *testing.T, s Scheduler, n int, sources []*packet.Packet) map[packet.DSCP]int64 {
	t.Helper()
	out := map[packet.DSCP]int64{}
	for i := 0; i < n; i++ {
		for _, src := range sources {
			s.Enqueue(pkt(src.Size, src.DSCP))
		}
		p := s.Dequeue()
		if p == nil {
			t.Fatal("Dequeue returned nil while backlogged — not work-conserving")
		}
		out[p.DSCP] += int64(p.Size)
	}
	return out
}

func ratioWithin(t *testing.T, name string, a, b int64, want, tol float64) {
	t.Helper()
	if b == 0 {
		t.Fatalf("%s: zero denominator (a=%d)", name, a)
	}
	got := float64(a) / float64(b)
	if got < want-tol || got > want+tol {
		t.Errorf("%s: byte ratio %.3f, want %.2f±%.2f", name, got, want, tol)
	}
}

func TestDRRByteFairnessEqualQuanta(t *testing.T) {
	// Equal quanta must yield equal byte shares even with a 3:1
	// packet-size mismatch — the property DRR exists for.
	d := NewDRR(
		ClassSpec{Name: "big", Match: MatchDSCP(packet.EF), Quantum: 1500},
		ClassSpec{Name: "small", Match: MatchDSCP(packet.BestEffort), Quantum: 1500},
	)
	got := serveBacklogged(t, d, 4000, []*packet.Packet{
		pkt(1500, packet.EF), pkt(500, packet.BestEffort),
	})
	ratioWithin(t, "DRR equal quanta", got[packet.EF], got[packet.BestEffort], 1.0, 0.05)
}

func TestDRRQuantumWeighting(t *testing.T) {
	d := NewDRR(
		ClassSpec{Name: "gold", Match: MatchDSCP(packet.EF), Quantum: 3000},
		ClassSpec{Name: "bronze", Match: MatchDSCP(packet.BestEffort), Quantum: 1000},
	)
	got := serveBacklogged(t, d, 6000, []*packet.Packet{
		pkt(1000, packet.EF), pkt(1000, packet.BestEffort),
	})
	ratioWithin(t, "DRR 3:1 quanta", got[packet.EF], got[packet.BestEffort], 3.0, 0.25)
}

func TestWFQWeightFairness(t *testing.T) {
	w := NewWFQ(
		ClassSpec{Name: "heavy", Match: MatchDSCP(packet.EF), Weight: 2},
		ClassSpec{Name: "light", Match: MatchDSCP(packet.BestEffort), Weight: 1},
	)
	got := serveBacklogged(t, w, 6000, []*packet.Packet{
		pkt(1200, packet.EF), pkt(1200, packet.BestEffort),
	})
	ratioWithin(t, "WFQ 2:1 weights", got[packet.EF], got[packet.BestEffort], 2.0, 0.15)
}

func TestWFQByteFairnessUnequalSizes(t *testing.T) {
	// Equal weights, 1500B vs 300B packets: byte shares equalize
	// because small packets earn proportionally smaller tag advances.
	w := NewWFQ(
		ClassSpec{Name: "big", Match: MatchDSCP(packet.EF), Weight: 1},
		ClassSpec{Name: "small", Match: MatchDSCP(packet.BestEffort), Weight: 1},
	)
	got := serveBacklogged(t, w, 6000, []*packet.Packet{
		pkt(1500, packet.EF), pkt(300, packet.BestEffort),
	})
	ratioWithin(t, "WFQ equal weights", got[packet.EF], got[packet.BestEffort], 1.0, 0.05)
}

func TestWFQPreservesIntraClassOrder(t *testing.T) {
	w := NewWFQ(
		ClassSpec{Name: "a", Match: MatchDSCP(packet.EF)},
		ClassSpec{Name: "b", Match: MatchDSCP(packet.BestEffort)},
	)
	for i := 0; i < 50; i++ {
		p := pkt(100+i, packet.EF)
		p.ID = uint64(i)
		w.Enqueue(p)
	}
	var last uint64
	first := true
	for p := w.Dequeue(); p != nil; p = w.Dequeue() {
		if !first && p.ID <= last {
			t.Fatalf("intra-class reorder: %d after %d", p.ID, last)
		}
		last, first = p.ID, false
	}
}

func TestMultiClassWorkConservation(t *testing.T) {
	// Invariant under random load: Dequeue returns a packet exactly
	// when Len() > 0, and Len always equals the sum of class Queued.
	mk := map[string]func() Scheduler{
		"drr": func() Scheduler {
			return NewDRR(
				ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF), Limit: 60},
				ClassSpec{Name: "af", Match: MatchDSCP(packet.AF11, packet.AF12, packet.AF13), Limit: 60},
				ClassSpec{Name: "be", Limit: 60},
			)
		},
		"wfq": func() Scheduler {
			return NewWFQ(
				ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF), Weight: 4, Limit: 60},
				ClassSpec{Name: "af", Match: MatchDSCP(packet.AF11, packet.AF12, packet.AF13), Weight: 2, Limit: 60},
				ClassSpec{Name: "be", Weight: 1, Limit: 60},
			)
		},
	}
	dscps := []packet.DSCP{packet.EF, packet.AF11, packet.AF12, packet.BestEffort, packet.DSCP(0x07)}
	for name, make := range mk {
		t.Run(name, func(t *testing.T) {
			s := make()
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 20000; step++ {
				if rng.Intn(3) > 0 {
					s.Enqueue(pkt(40+rng.Intn(1460), dscps[rng.Intn(len(dscps))]))
				} else {
					p := s.Dequeue()
					if (p == nil) != (s.Len() == 0 && p == nil) {
						t.Fatal("inconsistent Dequeue/Len")
					}
					if p == nil && s.Len() != 0 {
						t.Fatalf("step %d: Dequeue nil with %d queued — not work-conserving", step, s.Len())
					}
				}
				sum := 0
				for _, c := range s.Classes() {
					sum += c.Queued
				}
				if sum != s.Len() {
					t.Fatalf("step %d: class Queued sum %d != Len %d", step, sum, s.Len())
				}
			}
			for s.Len() > 0 {
				if s.Dequeue() == nil {
					t.Fatal("drain stalled with packets queued")
				}
			}
		})
	}
}

func TestClassStatsAccounting(t *testing.T) {
	for name, s := range map[string]Scheduler{
		"drr": NewDRR(
			ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF), Limit: 5},
			ClassSpec{Name: "be", Limit: 5},
		),
		"wfq": NewWFQ(
			ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF), Limit: 5},
			ClassSpec{Name: "be", Limit: 5},
		),
		"priority": NewEFPriority(5, 5),
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 8; i++ { // 3 over the EF limit
				s.Enqueue(pkt(1000, packet.EF))
			}
			s.Enqueue(pkt(700, packet.BestEffort))
			cs := s.Classes()
			if len(cs) != 2 {
				t.Fatalf("classes = %d, want 2", len(cs))
			}
			ef := cs[0]
			if ef.Enqueued != 5 || ef.Dropped != 3 || ef.Queued != 5 {
				t.Errorf("ef stats = %+v, want enq 5 drop 3 queued 5", ef)
			}
			if ef.Bytes != 5000 || ef.QueuedBytes != 5000 {
				t.Errorf("ef bytes = %d/%d, want 5000/5000", ef.Bytes, ef.QueuedBytes)
			}
			for s.Dequeue() != nil {
			}
			cs = s.Classes()
			if cs[0].Queued != 0 || cs[0].Enqueued != 5 {
				t.Errorf("post-drain ef stats = %+v", cs[0])
			}
		})
	}
}

func TestClassifyFallsBackToLastClass(t *testing.T) {
	d := NewDRR(
		ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF)},
		ClassSpec{Name: "be", Match: MatchDSCP(packet.BestEffort)},
	)
	d.Enqueue(pkt(100, packet.DSCP(0x33))) // matches neither
	cs := d.Classes()
	if cs[1].Queued != 1 {
		t.Errorf("unmatched DSCP not in fallback class: %+v", cs)
	}
	w := NewWFQ(
		ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF)},
		ClassSpec{Name: "be", Match: MatchDSCP(packet.BestEffort)},
	)
	w.Enqueue(pkt(100, packet.DSCP(0x33)))
	if w.Classes()[1].Queued != 1 {
		t.Errorf("WFQ unmatched DSCP not in fallback class")
	}
}

func TestDRRIdleClassLosesDeficit(t *testing.T) {
	// A class that drains must restart with zero deficit — otherwise
	// an idle class banks credit and bursts later.
	d := NewDRR(
		ClassSpec{Name: "a", Match: MatchDSCP(packet.EF), Quantum: 9000},
		ClassSpec{Name: "b", Quantum: 1500},
	)
	d.Enqueue(pkt(1500, packet.EF))
	if p := d.Dequeue(); p == nil || p.DSCP != packet.EF {
		t.Fatal("expected the EF packet")
	}
	if d.classes[0].deficit != 0 {
		t.Errorf("drained class kept deficit %d", d.classes[0].deficit)
	}
}

func TestWFQTagsStayBounded(t *testing.T) {
	// A continuously backlogged class must not accumulate consumed
	// tags: the compaction keeps the slice proportional to the
	// backlog, not to the packets ever served.
	w := NewWFQ(
		ClassSpec{Name: "ef", Match: MatchDSCP(packet.EF), Limit: 50},
		ClassSpec{Name: "be", Limit: 50},
	)
	for i := 0; i < 20000; i++ {
		w.Enqueue(pkt(1000, packet.EF))
		w.Enqueue(pkt(1000, packet.BestEffort))
		w.Dequeue() // net backlog grows to the limits, then stays full
	}
	for _, c := range w.classes {
		if len(c.tags) > 4*c.spec.Limit+64 {
			t.Errorf("class %s tags grew to %d (head %d) — compaction ineffective",
				c.spec.Name, len(c.tags), c.head)
		}
		if len(c.tags)-c.head != c.fifo.len() {
			t.Errorf("class %s outstanding tags %d != backlog %d",
				c.spec.Name, len(c.tags)-c.head, c.fifo.len())
		}
	}
}

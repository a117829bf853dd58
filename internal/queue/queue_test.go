package queue

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func pk(size int, d packet.DSCP) *packet.Packet {
	return &packet.Packet{Size: size, DSCP: d}
}

func TestFIFOOrder(t *testing.T) {
	var q FIFO
	for i := 1; i <= 5; i++ {
		p := pk(i, packet.BestEffort)
		p.ID = uint64(i)
		if !q.Push(p) {
			t.Fatal("unbounded FIFO refused a packet")
		}
	}
	for i := 1; i <= 5; i++ {
		if got := q.Pop(); got.ID != uint64(i) {
			t.Fatalf("pop %d: got id %d", i, got.ID)
		}
	}
	if q.Pop() != nil {
		t.Error("empty pop != nil")
	}
}

func TestFIFOPacketLimit(t *testing.T) {
	q := FIFO{MaxPackets: 2}
	q.Push(pk(1, 0))
	q.Push(pk(1, 0))
	if q.Push(pk(1, 0)) {
		t.Error("limit not enforced")
	}
	if q.Dropped != 1 || q.Enqueued != 2 {
		t.Errorf("counters: dropped=%d enq=%d", q.Dropped, q.Enqueued)
	}
}

// TestFIFOByteCount: Bytes tracks what is queued across pushes and
// pops.
func TestFIFOByteCount(t *testing.T) {
	var q FIFO
	q.Push(pk(1500, 0))
	q.Push(pk(1500, 0))
	q.Pop()
	q.Push(pk(1500, 0))
	if q.Bytes() != 3000 {
		t.Errorf("Bytes = %d", q.Bytes())
	}
}

func TestFIFOPeek(t *testing.T) {
	var q FIFO
	if q.Peek() != nil {
		t.Error("peek on empty")
	}
	p := pk(9, 0)
	q.Push(p)
	if q.Peek() != p || q.Len() != 1 {
		t.Error("peek must not remove")
	}
}

func TestPriorityServesEFFirst(t *testing.T) {
	s := NewEFPriority(0, 0)
	be := pk(1, packet.BestEffort)
	ef := pk(1, packet.EF)
	s.Enqueue(be)
	s.Enqueue(ef)
	if got := s.Dequeue(); got != ef {
		t.Error("EF not served first")
	}
	if got := s.Dequeue(); got != be {
		t.Error("BE lost")
	}
}

func TestPriorityStrictStarvation(t *testing.T) {
	s := NewEFPriority(0, 0)
	for i := 0; i < 10; i++ {
		s.Enqueue(pk(1, packet.EF))
		s.Enqueue(pk(1, packet.BestEffort))
	}
	for i := 0; i < 10; i++ {
		if got := s.Dequeue(); got.DSCP != packet.EF {
			t.Fatalf("dequeue %d served %v before EF drained", i, got.DSCP)
		}
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPriorityCustomHighSet(t *testing.T) {
	s := NewPriority(0, 0, packet.AF11, packet.EF)
	s.Enqueue(pk(1, packet.AF11))
	if s.High.Len() != 1 {
		t.Error("AF11 not classified high")
	}
	s.Enqueue(pk(1, packet.AF13))
	if s.Low.Len() != 1 {
		t.Error("AF13 not classified low")
	}
}

func TestPriorityPerClassLimits(t *testing.T) {
	s := NewEFPriority(1, 1)
	if !s.Enqueue(pk(1, packet.EF)) || s.Enqueue(pk(1, packet.EF)) {
		t.Error("high limit wrong")
	}
	if !s.Enqueue(pk(1, packet.BestEffort)) || s.Enqueue(pk(1, packet.BestEffort)) {
		t.Error("low limit wrong")
	}
}

func TestSingleFIFOScheduler(t *testing.T) {
	s := NewSingleFIFO(2)
	s.Enqueue(pk(1, 0))
	s.Enqueue(pk(2, 0))
	if s.Enqueue(pk(3, 0)) {
		t.Error("limit ignored")
	}
	if s.Len() != 2 || s.Dequeue() == nil {
		t.Error("basic ops broken")
	}
}

// FIFO conservation: everything pushed is popped exactly once, in
// order, for any interleaving of pushes and pops.
func TestFIFOConservation(t *testing.T) {
	f := func(ops []bool) bool {
		var q FIFO
		next := uint64(1)
		wantNext := uint64(1)
		for _, push := range ops {
			if push {
				p := pk(1, 0)
				p.ID = next
				next++
				q.Push(p)
			} else if p := q.Pop(); p != nil {
				if p.ID != wantNext {
					return false
				}
				wantNext++
			}
		}
		for p := q.Pop(); p != nil; p = q.Pop() {
			if p.ID != wantNext {
				return false
			}
			wantNext++
		}
		return wantNext == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package link

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestInflightStaysBounded: a link that never drains (propagation
// always outstanding) must not accumulate delivered packets in its
// in-flight buffer.
func TestInflightStaysBounded(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	// TxTime(1500B @ 6Mbps) = 2 ms < Delay 5 ms: at every transmit
	// completion some packet is still in propagation, so the
	// fully-drained reset never fires and only compaction bounds the
	// buffer.
	l := New(s, 6*units.Mbps, 5*units.Millisecond, queue.NewSingleFIFO(0), &sink)
	const n = 20000
	for i := 0; i < n; i++ {
		i := i
		s.AtTimer(units.Time(i)*2*units.Millisecond, timerFunc(func() {
			l.Handle(&packet.Packet{ID: uint64(i + 1), Size: 1500})
		}))
	}
	s.Run()
	if sink.Count != n {
		t.Fatalf("delivered %d of %d", sink.Count, n)
	}
	if l.inflight.Cap() > 256 {
		t.Errorf("inflight grew to %d entries on a busy link — compaction ineffective", l.inflight.Cap())
	}
}

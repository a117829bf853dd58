package node

import (
	"testing"

	"repro/internal/packet"
)

func TestFirstMatchWins(t *testing.T) {
	var a, b, d packet.Sink
	r := NewRouter("r", &d)
	ra := r.AddRule("flow1", FlowMatch(1), &a)
	rb := r.AddRule("best-effort", DSCPMatch(packet.BestEffort), &b)
	r.Handle(&packet.Packet{Flow: 1})
	r.Handle(&packet.Packet{Flow: 2})
	if a.Count != 1 || b.Count != 1 || d.Count != 0 {
		t.Errorf("a=%d b=%d default=%d", a.Count, b.Count, d.Count)
	}
	if ra.Hits != 1 || rb.Hits != 1 {
		t.Errorf("hits: %d %d", ra.Hits, rb.Hits)
	}
	if r.Received != 2 {
		t.Errorf("Received = %d", r.Received)
	}
}

func TestDefaultAction(t *testing.T) {
	var d packet.Sink
	r := NewRouter("r", &d)
	r.AddRule("flow9", FlowMatch(9), &packet.Sink{})
	r.Handle(&packet.Packet{Flow: 2})
	if d.Count != 1 {
		t.Error("unmatched packet not sent to default")
	}
}

func TestNilDefaultDiscards(t *testing.T) {
	r := NewRouter("r", nil)
	r.Handle(&packet.Packet{}) // must not panic
	if r.Received != 1 {
		t.Error("not counted")
	}
}

func TestDSCPMatch(t *testing.T) {
	m := DSCPMatch(packet.EF)
	if !m.Match(&packet.Packet{DSCP: packet.EF}) || m.Match(&packet.Packet{DSCP: packet.AF11}) {
		t.Error("DSCPMatch wrong")
	}
}

func TestRouterString(t *testing.T) {
	r := NewRouter("edge", nil)
	if r.String() == "" {
		t.Error("empty String")
	}
}

package packet

import (
	"strings"
	"testing"
)

func TestDSCPString(t *testing.T) {
	cases := map[DSCP]string{
		BestEffort: "BE", EF: "EF", AF11: "AF11", AF12: "AF12", AF13: "AF13",
		DSCP(0x07): "DSCP(0x07)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestColorProtoString(t *testing.T) {
	if Green.String() != "green" || Yellow.String() != "yellow" || Red.String() != "red" {
		t.Error("color names wrong")
	}
	if Color(9).String() != "Color(9)" {
		t.Error("unknown color format")
	}
	if UDP.String() != "UDP" || TCP.String() != "TCP" {
		t.Error("proto names wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Flow: 1, Size: 1500, DSCP: EF, FrameSeq: 42, FragIndex: 1, FragCount: 5}
	s := p.String()
	for _, want := range []string{"id=7", "EF", "frame=42", "frag=2/5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSink(t *testing.T) {
	var s Sink
	p := &Packet{Size: 100}
	s.Handle(p)
	s.Handle(&Packet{Size: 200})
	if s.Count != 2 || s.Bytes != 300 || s.Last.Size != 200 {
		t.Errorf("sink state: %+v", s)
	}
}

func TestHandlerFunc(t *testing.T) {
	called := false
	HandlerFunc(func(*Packet) { called = true }).Handle(&Packet{})
	if !called {
		t.Error("HandlerFunc not invoked")
	}
}

// TestPoolNumbersItsPackets pins the run-local numbering: a pool
// stamps 1, 2, 3, … in Get order, a recycled packet takes the next id
// rather than keeping its old one, Reset and Rewind restart at 1, and
// a nil pool's packets are unnumbered.
func TestPoolNumbersItsPackets(t *testing.T) {
	pl := NewPool()
	a, b := pl.Get(), pl.Get()
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("first ids %d, %d; want 1, 2", a.ID, b.ID)
	}
	pl.Put(a)
	if c := pl.Get(); c != a || c.ID != 3 {
		t.Errorf("recycled packet: same=%v id %d; want the freed packet with id 3", c == a, c.ID)
	}
	pl.Reset()
	if p := pl.Get(); p.ID != 1 {
		t.Errorf("after Reset: id %d, want 1", p.ID)
	}
	pl.Get()
	pl.Rewind()
	if p := pl.Get(); p.ID != 1 {
		t.Errorf("after Rewind: id %d, want 1", p.ID)
	}
	other := NewPool()
	other.Get()
	if p := pl.Get(); p.ID != 2 {
		t.Errorf("another pool's Get moved this pool's numbering: id %d, want 2", p.ID)
	}
	var none *Pool
	none.Rewind()
	if p := none.Get(); p.ID != 0 {
		t.Errorf("nil pool: id %d, want 0", p.ID)
	}
}

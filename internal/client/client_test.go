package client

import (
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

type fakeClock struct{ now units.Time }

func (c *fakeClock) Now() units.Time { return c.now }

func frag(seq, idx, count int) *packet.Packet {
	return &packet.Packet{FrameSeq: seq, FragIndex: idx, FragCount: count, Size: 1500}
}

func TestUDPReassemblyComplete(t *testing.T) {
	clk := &fakeClock{}
	c := NewUDP(clk, 10)
	clk.now = units.Second
	c.Handle(frag(0, 0, 3))
	clk.now = 2 * units.Second
	c.Handle(frag(0, 1, 3))
	clk.now = 3 * units.Second
	c.Handle(frag(0, 2, 3))
	tr := c.Finish()
	if len(tr.Records) != 1 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	r := tr.Records[0]
	if r.Arrival != 3*units.Second {
		t.Errorf("arrival = %v, want last fragment time", r.Arrival)
	}
	if r.Frags != 3 || r.LostFrags != 0 {
		t.Errorf("frags = %d lost = %d", r.Frags, r.LostFrags)
	}
}

func TestUDPIncompleteFrameNotDelivered(t *testing.T) {
	c := NewUDP(&fakeClock{}, 10)
	c.Handle(frag(0, 0, 3))
	c.Handle(frag(0, 1, 3))
	tr := c.Finish()
	if len(tr.Records) != 0 {
		t.Fatal("incomplete frame delivered without tolerance")
	}
}

func TestUDPToleranceConcealsLoss(t *testing.T) {
	c := NewUDP(&fakeClock{}, 10)
	c.Tolerance = SliceTolerance
	// 5-fragment frame missing one non-first fragment: concealed.
	for _, idx := range []int{0, 1, 2, 4} {
		c.Handle(frag(0, idx, 5))
	}
	// 5-fragment frame missing the first fragment: fatal.
	for _, idx := range []int{1, 2, 3, 4} {
		c.Handle(frag(1, idx, 5))
	}
	tr := c.Finish()
	if len(tr.Records) != 1 || tr.Records[0].Seq != 0 {
		t.Fatalf("records = %+v", tr.Records)
	}
	if tr.Records[0].LostFrags != 1 || tr.Records[0].Frags != 5 {
		t.Errorf("damage bookkeeping: %+v", tr.Records[0])
	}
}

func TestUDPToleranceLimit(t *testing.T) {
	c := NewUDP(&fakeClock{}, 10)
	c.Tolerance = SliceTolerance // (frags+1)/3 = 2 for 6 frags
	// 6-fragment frame missing three: dropped.
	for _, idx := range []int{0, 1, 2} {
		c.Handle(frag(0, idx, 6))
	}
	if len(c.Finish().Records) != 0 {
		t.Error("over-damaged frame delivered")
	}
}

func TestSliceToleranceValues(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 1, 5: 2, 6: 2, 8: 3}
	for frags, want := range cases {
		if got := SliceTolerance(frags); got != want {
			t.Errorf("SliceTolerance(%d) = %d, want %d", frags, got, want)
		}
	}
}

func TestUDPPresentationTimes(t *testing.T) {
	clk := &fakeClock{now: 5 * units.Second}
	c := NewUDP(clk, 10)
	c.Handle(frag(0, 0, 1))
	clk.now = 6 * units.Second
	c.Handle(frag(3, 0, 1))
	tr := c.Finish()
	iv := video.FrameInterval()
	if tr.Records[0].Presentation != 5*units.Second {
		t.Errorf("frame 0 presentation %v", tr.Records[0].Presentation)
	}
	want := 5*units.Second + 3*iv
	if tr.Records[1].Presentation != want {
		t.Errorf("frame 3 presentation %v, want %v", tr.Records[1].Presentation, want)
	}
}

func TestUDPIgnoresDuplicatesAfterEmit(t *testing.T) {
	c := NewUDP(&fakeClock{}, 10)
	c.Handle(frag(0, 0, 1))
	c.Handle(frag(0, 0, 1)) // duplicate
	tr := c.Finish()
	if len(tr.Records) != 1 {
		t.Errorf("duplicate created extra record")
	}
	if c.Packets != 2 {
		t.Errorf("packet count = %d", c.Packets)
	}
}

func TestUDPIgnoresNonVideo(t *testing.T) {
	c := NewUDP(&fakeClock{}, 10)
	c.Handle(&packet.Packet{FrameSeq: -1, Size: 100})
	if len(c.Finish().Records) != 0 {
		t.Error("cross traffic created a frame record")
	}
}

func mkCBREnc() *video.Encoding {
	return video.EncodeCBR(video.Lost(), 1.0e6)
}

func TestDecodeMPEGPropagation(t *testing.T) {
	enc := mkCBREnc()
	// Received: everything except frame 0 (the first I frame).
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	for i := 1; i < 24; i++ {
		tr.Add(trace.FrameRecord{Seq: i})
	}
	out := DecodeMPEG(tr, enc)
	// GoP 1 (frames 0-11): I lost -> P frames (3,6,9) undecodable and
	// B frames too. GoP 2 (frames 12-23) intact: 12 frames.
	for _, r := range out.Records {
		if r.Seq < 12 {
			t.Fatalf("frame %d decoded without its I frame", r.Seq)
		}
	}
	if len(out.Records) != 12 {
		t.Errorf("decoded %d frames, want 12", len(out.Records))
	}
}

func TestDecodeMPEGLostPBreaksChain(t *testing.T) {
	enc := mkCBREnc()
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	// Receive frames 0..11 except the P frame at 3.
	for i := 0; i < 12; i++ {
		if i != 3 {
			tr.Add(trace.FrameRecord{Seq: i})
		}
	}
	out := DecodeMPEG(tr, enc)
	// I(0) ok; B(1,2) ok; P(3) lost -> P(6),P(9) broken and B(4,5,7,8,10,11) too.
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(out.Records) != len(want) {
		t.Fatalf("decoded %d frames: %+v", len(out.Records), out.Records)
	}
	for _, r := range out.Records {
		if !want[r.Seq] {
			t.Errorf("frame %d should not decode", r.Seq)
		}
	}
}

func TestDecodeMPEGPerfectInput(t *testing.T) {
	enc := mkCBREnc()
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	for i := 0; i < enc.Clip.FrameCount(); i++ {
		tr.Add(trace.FrameRecord{Seq: i})
	}
	out := DecodeMPEG(tr, enc)
	if len(out.Records) != enc.Clip.FrameCount() {
		t.Errorf("perfect input lost frames: %d", len(out.Records))
	}
}

func TestStreamAssembler(t *testing.T) {
	var a StreamAssembler
	a.RegisterMessage(0, 100)
	a.RegisterMessage(1, 200)
	a.RegisterMessage(2, 50)
	if len(a.msgs) != 3 {
		t.Errorf("registered %d messages, want 3", len(a.msgs))
	}
	if got := a.consume(99); len(got) != 0 {
		t.Errorf("early completion: %v", got)
	}
	if got := a.consume(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("frame 0 completion: %v", got)
	}
	if got := a.consume(250); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("remaining completions: %v", got)
	}
	if got := a.consume(1000); len(got) != 0 {
		t.Errorf("overconsumption: %v", got)
	}
}

func TestStreamReceiver(t *testing.T) {
	clk := &fakeClock{now: units.Second}
	c := NewStream(clk, 10)
	var a StreamAssembler
	a.RegisterMessage(0, 1000)
	a.RegisterMessage(2, 500) // frame 1 thinned by the server
	c.OnDelivered(&a, 1000)
	clk.now = 2 * units.Second
	c.OnDelivered(&a, 500)
	tr := c.Finish()
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.Records[1].Seq != 2 || tr.Records[1].Arrival != 2*units.Second {
		t.Errorf("record: %+v", tr.Records[1])
	}
	if tr.LostFrames() != 8 {
		t.Errorf("lost = %d (thinned frames must count as lost)", tr.LostFrames())
	}
}

// TestTablesStayInRange: the slot table and the decoder's frame index
// are sized from a clip length, but a scenario file can wire any source
// to any client, so every way a packet or a record can fall outside
// that length must behave as the map-based receiver did.
func TestTablesStayInRange(t *testing.T) {
	for _, tc := range []struct {
		name       string
		clipFrames int
		pkts       []*packet.Packet
		wantSeqs   []int
	}{
		{"seq past the clip grows the table", 4,
			[]*packet.Packet{frag(4, 0, 1), frag(900, 0, 2), frag(900, 1, 2), frag(3, 0, 1)}, []int{3, 4, 900}},
		{"negative seq is counted, released, ignored", 4,
			[]*packet.Packet{frag(-1, 0, 1), frag(-7, 0, 1), frag(2, 0, 1)}, []int{2}},
		{"zero clip length", 0, []*packet.Packet{frag(0, 0, 1), frag(5, 0, 1)}, []int{0, 5}},
		{"negative clip length", -3, []*packet.Packet{frag(1, 0, 1)}, []int{1}},
		{"zero-fragment frame emits on first arrival", 4,
			[]*packet.Packet{frag(1, 0, 0), frag(1, 1, 0), frag(2, 0, -3)}, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := packet.NewPool()
			c := NewUDP(&fakeClock{}, tc.clipFrames)
			c.Pool = pool
			var bytes int64
			for _, p := range tc.pkts {
				bytes += int64(p.Size)
				c.Handle(p)
			}
			if c.Packets != len(tc.pkts) || c.PacketsBytes != bytes {
				t.Errorf("counted %d packets / %d bytes, want %d / %d", c.Packets, c.PacketsBytes, len(tc.pkts), bytes)
			}
			if pool.Free() != len(tc.pkts) {
				t.Errorf("%d of %d packets returned to the pool", pool.Free(), len(tc.pkts))
			}
			var got []int
			for _, r := range c.Finish().Records {
				got = append(got, r.Seq)
			}
			if !slices.Equal(got, tc.wantSeqs) {
				t.Errorf("emitted frames %v, want %v", got, tc.wantSeqs)
			}
		})
	}

	t.Run("DecodeMPEG skips records outside the encoding", func(t *testing.T) {
		enc := mkCBREnc()
		n := len(enc.Frames)
		tr := &trace.Trace{ClipFrames: n}
		for _, seq := range []int{-2, 0, 1, n, n + 40} {
			tr.Add(trace.FrameRecord{Seq: seq, Frags: 1})
		}
		out := DecodeMPEG(tr, enc)
		if len(out.Records) != 2 || out.Records[0].Seq != 0 || out.Records[1].Seq != 1 {
			t.Errorf("decoded %+v, want frames 0 and 1 only", out.Records)
		}
	})
}

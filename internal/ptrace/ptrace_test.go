package ptrace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/units"
)

type fakeClock struct{ t units.Time }

func (c *fakeClock) Now() units.Time { return c.t }

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	clk := &fakeClock{}
	r.SetClock(clk)
	for i := 0; i < 20; i++ {
		clk.t = units.Time(i)
		r.Emit(Event{PktID: uint64(i)})
	}
	if r.Seen() != 20 {
		t.Fatalf("seen %d, want 20", r.Seen())
	}
	if r.Retained() != 8 {
		t.Fatalf("retained %d, want 8", r.Retained())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := uint64(12 + i); e.PktID != want {
			t.Errorf("event %d id %d, want %d (last-8 window)", i, e.PktID, want)
		}
	}
	if r.Overwritten() != 12 {
		t.Errorf("overwritten %d, want 12", r.Overwritten())
	}
}

func TestRecorderHeadTail(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, Head: 3})
	for i := 0; i < 20; i++ {
		r.Emit(Event{PktID: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	// First 3 pinned, last 5 ringed.
	for i := 0; i < 3; i++ {
		if evs[i].PktID != uint64(i) {
			t.Errorf("head %d id %d, want %d", i, evs[i].PktID, i)
		}
	}
	for i := 0; i < 5; i++ {
		if want := uint64(15 + i); evs[3+i].PktID != want {
			t.Errorf("tail %d id %d, want %d", i, evs[3+i].PktID, want)
		}
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1000, Sample: 10})
	for i := 0; i < 1000; i++ {
		r.Emit(Event{PktID: uint64(i)})
	}
	if got := r.Retained(); got != 100 {
		t.Fatalf("retained %d with 1-in-10 sampling, want 100", got)
	}
}

// TestRecorderSamplingPerKind pins the per-kind stride: a stream that
// strictly alternates two kinds under Sample=2 must retain half of
// EACH kind, not all of one and none of the other.
func TestRecorderSamplingPerKind(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1000, Sample: 2})
	for i := 0; i < 400; i++ {
		k := PolicerPass
		if i%2 == 1 {
			k = Deliver
		}
		r.Emit(Event{Kind: k})
	}
	got := map[Kind]int{}
	for _, e := range r.Events() {
		got[e.Kind]++
	}
	if got[PolicerPass] != 100 || got[Deliver] != 100 {
		t.Fatalf("per-kind sampling broken: pass=%d deliver=%d, want 100 each",
			got[PolicerPass], got[Deliver])
	}
}

func TestRecorderKindAndFlowFilters(t *testing.T) {
	r := NewRecorder(Config{
		Capacity: 100,
		Kinds:    KindMask(PolicerDrop, Deliver),
		Flows:    []packet.FlowID{1},
	})
	r.Emit(Event{Kind: PolicerDrop, Flow: 1})  // kept
	r.Emit(Event{Kind: LinkEnqueue, Flow: 1})  // kind filtered
	r.Emit(Event{Kind: PolicerDrop, Flow: 99}) // flow filtered
	r.Emit(Event{Kind: Deliver, Flow: 1})      // kept
	if r.Seen() != 4 {
		t.Errorf("seen %d, want 4 (filters still count emissions)", r.Seen())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != PolicerDrop || evs[1].Kind != Deliver {
		t.Fatalf("retained %+v, want the two flow-1 masked kinds", evs)
	}
}

func TestRecorderHopInterning(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4})
	a, b2 := r.Hop("alpha"), r.Hop("beta")
	if a == b2 {
		t.Fatal("distinct names share an id")
	}
	if r.Hop("alpha") != a {
		t.Fatal("re-interning changed the id")
	}
	if r.HopName(a) != "alpha" || r.HopName(b2) != "beta" {
		t.Fatalf("name table broken: %q %q", r.HopName(a), r.HopName(b2))
	}
}

// TestSpillingRecorderRetainsNothing pins what a spilling recorder
// reports: the spill stream is the capture, so Events and Retained
// report nothing, no ring or head storage is ever allocated, and the
// stream holds exactly the head plus the sampled tail — the events a
// RAM recorder of the same Config would have been offered.
func TestSpillingRecorderRetainsNothing(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Config{Capacity: 8, Head: 3, Sample: 2})
	r.SpillTo(&buf)
	for i := 0; i < 20; i++ {
		r.Emit(Event{PktID: uint64(i)})
	}
	if r.Retained() != 0 || len(r.Events()) != 0 || r.Overwritten() != 0 {
		t.Errorf("spilling recorder retains %d, returns %d events, overwrote %d; want 0, 0, 0",
			r.Retained(), len(r.Events()), r.Overwritten())
	}
	if r.head != nil || r.ring != nil {
		t.Errorf("spilling recorder allocated a head of %d or a ring of %d events", cap(r.head), len(r.ring))
	}
	if r.Seen() != 20 || r.Spilled() != 11 {
		t.Fatalf("seen %d, spilled %d; want 20, 11 (3 pinned + 8 of 17 sampled)", r.Seen(), r.Spilled())
	}
	if err := r.FinishSpill(); err != nil {
		t.Fatal(err)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, e := range d.Events {
		got = append(got, e.PktID)
	}
	if want := []uint64{0, 1, 2, 4, 6, 8, 10, 12, 14, 16, 18}; !reflect.DeepEqual(got, want) {
		t.Errorf("spilled ids %v, want %v", got, want)
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1024})
	clk := &fakeClock{}
	r.SetClock(clk)
	var tap Tap = r // through the interface, as hook sites use it
	allocs := testing.AllocsPerRun(2000, func() {
		clk.t++
		tap.Emit(Event{Kind: LinkEnqueue, PktID: 7, Size: 1500, QLen: 3})
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.2f/op, want 0", allocs)
	}
}

// randomEvent draws an event with every field exercised, including
// negative FrameSeq and large ids.
func randomEvent(rng *rand.Rand) Event {
	return Event{
		T:        units.Time(rng.Int63n(1e12)),
		Delay:    units.Time(rng.Int63n(1e9)),
		PktID:    rng.Uint64(),
		Flow:     packet.FlowID(rng.Uint32()),
		Size:     int32(rng.Intn(65536)),
		QLen:     int32(rng.Intn(1000)),
		FrameSeq: int32(rng.Intn(5000) - 1),
		Hop:      HopID(rng.Intn(4)),
		Kind:     Kind(rng.Intn(int(numKinds))),
		DSCP:     packet.DSCP(rng.Intn(64)),
		Flag:     uint8(rng.Intn(3)),
	}
}

// TestEncodeDecodeRoundTrip is the property test for the trace
// format: any capture of well-formed events survives WriteTo → Read
// bit-exactly (TestV2RoundTripRandomEvents covers full field range).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		d := &Data{
			Hops: []string{"campus", "jit", "border", "hop0"},
			Seen: rng.Uint64() % 1e9,
		}
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			d.Events = append(d.Events, randomEvent(rng))
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if got.Seen != d.Seen || !reflect.DeepEqual(got.Hops, d.Hops) {
			t.Fatalf("trial %d: header mismatch: %+v vs %+v", trial, got, d)
		}
		if len(got.Events) != len(d.Events) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got.Events), len(d.Events))
		}
		for i := range d.Events {
			if got.Events[i] != d.Events[i] {
				t.Fatalf("trial %d event %d: %+v != %+v", trial, i, got.Events[i], d.Events[i])
			}
		}
	}
}

// TestReadRejectsBadInput pins that only a v2 trace decodes, and that a
// trace recorded before v2 became the only encoding (its first byte is
// '{') is named as such by both readers rather than called garbage.
func TestReadRejectsBadInput(t *testing.T) {
	const stale = "JSONL v1 traces are no longer read; re-record with dsbench -trace"
	cases := []struct{ name, in, want string }{
		{"empty", "", "bad magic"},
		{"zip file", "PK\x03\x04zipfile", "bad magic"},
		{"magic only", "\x89PTRC2\r\n", "truncated"},
		{"stale header", `{"format":"ptrace","version":1,"seen":0,"events":0,"hops":[]}` + "\n", stale},
		{"stale lead byte", "{", stale},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Read err %v, want %q", c.name, err, c.want)
		}
		if _, _, err := AnalyzeStream(strings.NewReader(c.in), 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: AnalyzeStream err %v, want %q", c.name, err, c.want)
		}
	}
}

// TestAnalyzeAndAttribute runs both streaming passes dstrace makes — the
// digest and the frame-loss join — over the v2 bytes of a hand-built
// capture whose answers can be read off the event list.
func TestAnalyzeAndAttribute(t *testing.T) {
	d := &Data{Hops: []string{"policer", "bottleneck", "client"}, Seen: 9}
	ms := func(n int64) units.Time { return units.Time(n) * units.Millisecond }
	d.Events = []Event{
		{T: ms(1), Kind: PolicerPass, Hop: 0, Flow: 1, PktID: 1, FrameSeq: 0},
		{T: ms(1), Kind: LinkEnqueue, Hop: 1, Flow: 1, PktID: 1, FrameSeq: 0, QLen: 2},
		{T: ms(2), Kind: LinkTx, Hop: 1, Flow: 1, PktID: 1, FrameSeq: 0, Delay: ms(1)},
		{T: ms(3), Kind: Deliver, Hop: 2, Flow: 1, PktID: 1, FrameSeq: 0, Delay: ms(2)},
		{T: ms(4), Kind: PolicerDrop, Hop: 0, Flow: 1, PktID: 2, FrameSeq: 1},
		{T: ms(5), Kind: PolicerDrop, Hop: 0, Flow: 1, PktID: 3, FrameSeq: 1},
		{T: ms(6), Kind: QueueDrop, Hop: 1, Flow: 1, PktID: 4, FrameSeq: 2},
		{T: ms(7), Kind: PolicerPass, Hop: 0, Flow: 1, PktID: 5, FrameSeq: 3},
		{T: ms(8), Kind: Deliver, Hop: 2, Flow: 1, PktID: 5, FrameSeq: 3, Delay: ms(4)},
		// A drop of a frame that arrived anyway, and one past the clip:
		// neither is a lost frame, so the join must not count them.
		{T: ms(9), Kind: QueueDrop, Hop: 1, Flow: 1, PktID: 6, FrameSeq: 3},
		{T: ms(9), Kind: Loss, Hop: 1, Flow: 1, PktID: 7, FrameSeq: 9},
	}
	var enc bytes.Buffer
	if _, err := d.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	s, info, err := AnalyzeStream(bytes.NewReader(enc.Bytes()), units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != uint64(len(d.Events)) || info.Hops != 3 || info.Seen != 9 {
		t.Errorf("stream info %+v", info)
	}
	if len(s.Hops) != 3 {
		t.Fatalf("hops %d, want 3", len(s.Hops))
	}
	pol := s.Hops[0]
	if pol.Counts[PolicerPass] != 2 || pol.Counts[PolicerDrop] != 2 || pol.Drops != 2 {
		t.Errorf("policer stats wrong: %+v", pol)
	}
	if s.Hops[1].MaxQLen != 2 || s.Hops[1].Residence.N != 1 || s.Hops[1].Drops != 3 {
		t.Errorf("bottleneck stats wrong: %+v", s.Hops[1])
	}
	if len(s.Flows) != 1 || s.Flows[0].Delivered != 2 || s.Flows[0].Drops != 5 {
		t.Fatalf("flow stats wrong: %+v", s.Flows)
	}
	if len(s.Timeline) != 1 || s.Timeline[0].Pass != 2 || s.Timeline[0].Drops != 2 {
		t.Errorf("timeline wrong: %+v", s.Timeline)
	}
	if s.Format() == "" {
		t.Error("empty summary")
	}

	// Frames 0 and 3 arrived; 1 (policer) and 2 (bottleneck) were lost.
	ft := &trace.Trace{ClipFrames: 4}
	ft.Add(trace.FrameRecord{Seq: 0})
	ft.Add(trace.FrameRecord{Seq: 3})
	a, err := AttributeFrameLoss(bytes.NewReader(enc.Bytes()), ft)
	if err != nil {
		t.Fatal(err)
	}
	if a.LostFrames != 2 || len(a.Attributed) != 2 || a.Unattributed != 0 {
		t.Fatalf("attribution wrong: %+v", a)
	}
	if a.Attributed[0].Hop != "policer" || a.Attributed[0].Frags != 2 {
		t.Errorf("frame 1 attribution wrong: %+v", a.Attributed[0])
	}
	if a.Attributed[1].Hop != "bottleneck" || a.Attributed[1].Frags != 1 {
		t.Errorf("frame 2 attribution wrong: %+v", a.Attributed[1])
	}
	if a.ByHop["policer"] != 1 || a.ByHop["bottleneck"] != 1 {
		t.Errorf("by-hop counts wrong: %+v", a.ByHop)
	}
	if a.Format(10) == "" {
		t.Error("empty attribution format")
	}

	// A frame trace is outside input: a negative clip length is no lost
	// frames, not a crash.
	if a, err := AttributeFrameLoss(bytes.NewReader(enc.Bytes()), &trace.Trace{ClipFrames: -1}); err != nil || a.LostFrames != 0 {
		t.Errorf("negative clip length: %+v, %v", a, err)
	}

	// The join is a decoder pass like any other: a cut file fails.
	if _, err := AttributeFrameLoss(bytes.NewReader(enc.Bytes()[:enc.Len()-1]), ft); err == nil {
		t.Error("truncated trace attributed without error")
	}
}

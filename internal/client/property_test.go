package client

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// TestReassemblyOrderInvariance: a frame's delivery verdict must not
// depend on the order its fragments arrive in.
func TestReassemblyOrderInvariance(t *testing.T) {
	f := func(seed uint64, frags uint8, lose uint8) bool {
		n := int(frags%7) + 2 // 2..8 fragments
		lost := int(lose) % n // 0..n-1 losses
		rng := sim.NewRNG(seed)

		run := func(shuffle bool) (delivered bool, damage int) {
			clk := &fakeClock{}
			c := NewUDP(clk, 10)
			c.Tolerance = SliceTolerance
			idx := make([]int, 0, n)
			for i := 0; i < n; i++ {
				idx = append(idx, i)
			}
			if shuffle {
				for i := len(idx) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					idx[i], idx[j] = idx[j], idx[i]
				}
			}
			// Drop the *last* `lost` positions of the canonical order
			// so both runs lose the same fragment identities.
			dropped := map[int]bool{}
			for i := n - lost; i < n; i++ {
				dropped[i] = true
			}
			for _, fi := range idx {
				if dropped[fi] {
					continue
				}
				clk.now += units.Millisecond
				c.Handle(&packet.Packet{FrameSeq: 0, FragIndex: fi, FragCount: n, Size: 1500})
			}
			tr := c.Finish()
			if len(tr.Records) == 0 {
				return false, 0
			}
			return true, tr.Records[0].LostFrags
		}
		d1, l1 := run(false)
		d2, l2 := run(true)
		return d1 == d2 && l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeMPEGNeverInventsFrames: the decode-dependency filter can
// only remove frames, never add or duplicate.
func TestDecodeMPEGNeverInventsFrames(t *testing.T) {
	enc := mkCBREnc()
	rng := sim.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		tr := newRandomTrace(rng, enc.Clip.FrameCount(), 0.3)
		out := DecodeMPEG(tr, enc)
		if len(out.Records) > len(tr.Records) {
			t.Fatal("decode added frames")
		}
		in := map[int]bool{}
		for _, r := range tr.Records {
			in[r.Seq] = true
		}
		seen := map[int]bool{}
		for _, r := range out.Records {
			if !in[r.Seq] {
				t.Fatalf("frame %d invented", r.Seq)
			}
			if seen[r.Seq] {
				t.Fatalf("frame %d duplicated", r.Seq)
			}
			seen[r.Seq] = true
		}
	}
}

// newRandomTrace builds a trace with each frame present independently
// with probability 1-lossP.
func newRandomTrace(rng *sim.RNG, n int, lossP float64) *trace.Trace {
	tr := &trace.Trace{ClipFrames: n}
	for i := 0; i < n; i++ {
		if rng.Float64() < lossP {
			continue
		}
		tr.Add(trace.FrameRecord{Seq: i, Frags: 1})
	}
	return tr
}

// mapUDP is the two-map reassembly UDP replaced with a slot table and
// a slab, kept as the oracle of TestUDPMatchesMapOracle and
// TestScratchServedReceiversMatchFresh.
type mapUDP struct {
	clock     Clock
	tr        *trace.Trace
	base      units.Time
	started   bool
	frames    map[int]*mapFragState
	emitted   map[int]bool
	tolerance func(frags int) int

	packets      int
	packetsBytes int64
}

type mapFragState struct {
	total, received int
	gotFirst        bool
	last            units.Time
}

func newMapUDP(clock Clock, clipFrames int) *mapUDP {
	return &mapUDP{clock: clock, tr: &trace.Trace{ClipFrames: clipFrames},
		frames: map[int]*mapFragState{}, emitted: map[int]bool{}}
}

func (c *mapUDP) handle(p *packet.Packet) {
	now := c.clock.Now()
	if !c.started {
		c.started, c.base = true, now
	}
	c.packets++
	c.packetsBytes += int64(p.Size)
	seq := p.FrameSeq
	if seq < 0 || c.emitted[seq] {
		return
	}
	st := c.frames[seq]
	if st == nil {
		st = &mapFragState{total: p.FragCount}
		c.frames[seq] = st
	}
	st.received++
	st.last = now
	if p.FragIndex == 0 {
		st.gotFirst = true
	}
	if st.received >= st.total {
		c.emit(seq, st)
	}
}

func (c *mapUDP) emit(seq int, st *mapFragState) {
	c.emitted[seq] = true
	delete(c.frames, seq)
	c.tr.Add(trace.FrameRecord{
		Seq: seq, Arrival: st.last,
		Presentation: c.base + units.Time(int64(seq))*video.FrameInterval(),
		Frags:        st.total, LostFrags: st.total - st.received,
	})
}

func (c *mapUDP) finish() *trace.Trace {
	if c.tolerance != nil {
		for seq, st := range c.frames {
			if st.gotFirst && st.total-st.received <= c.tolerance(st.total) {
				c.emit(seq, st)
			}
		}
	}
	c.tr.SortBySeq()
	return c.tr
}

// randomFragmentStream draws one receiver's arrivals: frames of 1–8
// fragments, each fragment lost with probability lossP, survivors
// displaced by up to eight frames' worth of positions, one in ten
// duplicated late enough to land after its frame was emitted, plus the
// odd cross-traffic packet, the odd frame whose header declares zero or
// fewer fragments, and frames past the declared clip length.
func randomFragmentStream(rng *sim.RNG, clipFrames int, lossP float64) []packet.Packet {
	type keyed struct {
		key int
		p   packet.Packet
	}
	var ks []keyed
	pos := 0
	for seq := 0; seq < clipFrames+3; seq++ {
		n := 1 + rng.Intn(8)
		declared := n
		if rng.Intn(32) == 0 {
			declared = -rng.Intn(3)
		}
		for fi := 0; fi < n; fi++ {
			pos++
			if rng.Float64() < lossP {
				continue
			}
			p := packet.Packet{FrameSeq: seq, FragIndex: fi, FragCount: declared, Size: 200 + rng.Intn(1300)}
			ks = append(ks, keyed{pos + rng.Intn(8*5), p})
			if rng.Intn(10) == 0 {
				ks = append(ks, keyed{pos + 40 + rng.Intn(80), p})
			}
		}
		if rng.Intn(16) == 0 {
			ks = append(ks, keyed{pos, packet.Packet{FrameSeq: -1, Size: 64}})
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return a.key - b.key })
	out := make([]packet.Packet, len(ks))
	for i, k := range ks {
		out[i] = k.p
	}
	return out
}

// TestUDPMatchesMapOracle drives the slot-table receiver and the
// two-map reference with the same lossy, reordered, duplicated
// fragment streams: traces, packet and byte counts must be identical,
// with and without a concealment model.
func TestUDPMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 240; seed++ {
		rng := sim.NewRNG(seed)
		clipFrames := 20 + rng.Intn(60)
		stream := randomFragmentStream(rng, clipFrames, 0.3*rng.Float64())
		clk := &fakeClock{}
		got, want := NewUDP(clk, clipFrames), newMapUDP(clk, clipFrames)
		if seed%2 == 1 {
			got.Tolerance, want.tolerance = SliceTolerance, SliceTolerance
		}
		for i := range stream {
			clk.now += units.Time(1+rng.Intn(5)) * units.Millisecond
			p, q := stream[i], stream[i]
			got.Handle(&p)
			want.handle(&q)
		}
		ref := want.finish()
		if !reflect.DeepEqual(got.Finish(), ref) {
			t.Fatalf("seed %d: slot-table trace differs from the map oracle's", seed)
		}
		if got.Packets != want.packets || got.PacketsBytes != want.packetsBytes {
			t.Fatalf("seed %d: counted %d pkts / %d B, oracle %d / %d", seed,
				got.Packets, got.PacketsBytes, want.packets, want.packetsBytes)
		}
		if again := got.Finish(); !reflect.DeepEqual(again, ref) {
			t.Fatalf("seed %d: a second Finish changed the trace", seed)
		}
		if len(ref.Records) == 0 {
			t.Fatalf("seed %d: nothing reassembled — the comparison was vacuous", seed)
		}
	}
}

// decodeMPEGMap is DecodeMPEG in its map-indexed form, the oracle of
// TestDecodeMPEGMatchesMapOracle.
func decodeMPEGMap(tr *trace.Trace, enc *video.Encoding) *trace.Trace {
	received := make(map[int]trace.FrameRecord, len(tr.Records))
	for _, r := range tr.Records {
		received[r.Seq] = r
	}
	out := &trace.Trace{ClipFrames: tr.ClipFrames}
	anchorOK := false
	for i := range enc.Frames {
		r, ok := received[i]
		switch enc.Frames[i].Type {
		case video.IFrame:
			anchorOK = ok
		case video.PFrame:
			ok = ok && anchorOK
			anchorOK = ok
		default:
			ok = ok && anchorOK
		}
		if ok {
			out.Add(r)
		}
	}
	return out
}

// TestDecodeMPEGMatchesMapOracle: one reused MPEGDecoder against the
// map form over random traces, including records outside the encoding
// and repeated sequence numbers (the last one wins in both).
func TestDecodeMPEGMatchesMapOracle(t *testing.T) {
	enc := mkCBREnc()
	n := enc.Clip.FrameCount()
	var dec MPEGDecoder
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		tr := newRandomTrace(rng, n-rng.Intn(n/2), 0.6*rng.Float64())
		for k := rng.Intn(4); k > 0; k-- {
			tr.Add(trace.FrameRecord{Seq: rng.Intn(n+50) - 25, Arrival: units.Time(seed), Frags: 2})
		}
		got, want := dec.Decode(tr, enc), decodeMPEGMap(tr, enc)
		if !slices.Equal(got.Records, want.Records) || got.ClipFrames != want.ClipFrames {
			t.Fatalf("seed %d: dense-index decode kept %d frames, map oracle %d",
				seed, len(got.Records), len(want.Records))
		}
	}
}

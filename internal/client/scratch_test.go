package client

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestBorrowedSlotTableIsClearedAndResliced: a slot table comes back
// from a job holding that job's slab indices — and longer than the next
// clip, if the previous receiver ran a longer one or was sent frames
// past its own. The next borrower must see a zeroed table of exactly its
// own clip's length, and zeros again wherever it grows into the old
// capacity.
func TestBorrowedSlotTableIsClearedAndResliced(t *testing.T) {
	var sc Scratch
	first := NewUDP(&fakeClock{}, 8)
	first.Scratch = &sc
	for _, p := range []*packet.Packet{frag(1, 0, 1), frag(2, 0, 1), frag(6, 0, 2), frag(900, 0, 1)} {
		first.Handle(p)
	}
	if got := len(first.Finish().Records); got != 3 {
		t.Fatalf("first receiver emitted %d frames, want 3", got)
	}
	sc.Reset()
	if len(sc.slots) != 1 || cap(sc.slots[0]) < 901 {
		t.Fatalf("slot table not taken back at its grown capacity: %d tables", len(sc.slots))
	}

	// Frame 2 was the first receiver's state 2, frame 6 its state 3 (half
	// received) and frame 900 its state 4: every one of them a stale index
	// into a slab whose kept chunk still holds the old, completed states.
	second := NewUDP(&fakeClock{}, 4)
	second.Scratch = &sc
	second.Handle(frag(2, 0, 2))
	if len(second.slots) != 4 {
		t.Fatalf("borrowed slot table has %d entries, want the new clip's 4", len(second.slots))
	}
	second.Handle(frag(2, 1, 2))
	second.Handle(frag(6, 0, 1))   // past the new clip, inside the old capacity
	second.Handle(frag(900, 0, 1)) // the old table's last entry
	var got []int
	for _, r := range second.Finish().Records {
		got = append(got, r.Seq)
	}
	if want := []int{2, 6, 900}; !slices.Equal(got, want) {
		t.Errorf("second receiver emitted %v on a recycled table, want %v", got, want)
	}
}

// TestSilentReceiverBorrowsNothing: a receiver the network never reaches
// — every packet policed, or a flow the demux never matches — takes no
// buffer off the free lists, no reassembly state, allocates no slot
// table, still answers Trace with an empty trace of its clip's length,
// and gives Reset nothing to file.
func TestSilentReceiverBorrowsNothing(t *testing.T) {
	var sc Scratch
	warm := NewUDP(&fakeClock{}, 10)
	warm.Scratch = &sc
	warm.Handle(frag(0, 0, 1))
	warm.Finish()
	sc.Reset()

	silent, stream := NewUDP(&fakeClock{}, 10), NewStream(&fakeClock{}, 10)
	silent.Scratch, stream.Scratch = &sc, &sc
	asm := &StreamAssembler{Scratch: &sc}
	if asm.TotalBytes() != 0 || len(stream.Finish().Records) != 0 {
		t.Error("a stream nothing was written to delivered something")
	}
	if tr := silent.Finish(); tr.ClipFrames != 10 || len(tr.Records) != 0 || tr.FrameLossFraction() != 1 {
		t.Errorf("silent receiver's trace = %+v, want 10 frames, none received", tr)
	}
	if silent.slots != nil || sc.slab.n != 0 || len(sc.traces) != 0 || len(sc.udps) != 0 || len(sc.asms) != 0 {
		t.Errorf("silent receivers borrowed: slots %v, %d states, %d trace, %d UDP and %d assembler loans",
			silent.slots, sc.slab.n, len(sc.traces), len(sc.udps), len(sc.asms))
	}
	if len(sc.records) != 1 || len(sc.slab.chunks) != 1 || len(sc.slots) != 1 {
		t.Errorf("free lists moved under silent receivers: %d/%d/%d buffers, want 1/1/1",
			len(sc.records), len(sc.slab.chunks), len(sc.slots))
	}

	// A receiver that heard only cross traffic borrowed, grew nothing but
	// its slot table, and must not file empty buffers for the next job.
	var fresh Scratch
	idle := NewUDP(&fakeClock{}, 10)
	idle.Scratch = &fresh
	idle.Handle(frag(-1, 0, 1))
	idle.Finish()
	fresh.Reset()
	if len(fresh.records) != 0 || len(fresh.slab.chunks) != 0 || len(fresh.slots) != 1 {
		t.Errorf("idle receiver returned %d/%d/%d buffers, want only its slot table",
			len(fresh.records), len(fresh.slab.chunks), len(fresh.slots))
	}
}

// verdict is what a job keeps of a trace: plain values, read before the
// storage goes back.
type verdict struct {
	frames, lost, late, damaged int
	lastArrival                 units.Time
}

func judge(tr *trace.Trace) verdict {
	v := verdict{frames: len(tr.Records), lost: tr.LostFrames(), late: tr.LateFrames(0)}
	for _, r := range tr.Records {
		v.damaged += r.LostFrags
		v.lastArrival = max(v.lastArrival, r.Arrival)
	}
	return v
}

// poison overwrites every buffer on the free lists, to its full
// capacity, and every state in the slab's kept chunks, with values no
// receiver would survive reading: slab indices far out of range, frames
// already complete, records of frames that do not exist.
func (s *Scratch) poison() {
	for _, b := range s.records {
		b = b[:cap(b)]
		for i := range b {
			b[i] = trace.FrameRecord{Seq: -7, Arrival: -1, Presentation: -1, Frags: 99, LostFrags: 99}
		}
	}
	for _, ch := range s.slab.chunks {
		for i := range ch {
			ch[i] = fragState{total: 1, got: 1 | fragFirst | fragDone, last: -1}
		}
	}
	for _, b := range s.slots {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 1 << 30
		}
	}
	for _, b := range s.msgs {
		b = b[:cap(b)]
		for i := range b {
			b[i] = message{seq: -7, len: 1}
		}
	}
}

// TestScratchServedReceiversMatchFresh is the lending contract as a
// property: a sequence of jobs — each some UDP receivers and a TCP
// stream, over alternating clip lengths, under random loss, reordering,
// late duplicates, cross traffic, malformed fragment counts and frames
// past the clip, with and without concealment — served by one Scratch
// with a Reset between jobs yields the traces fresh receivers and the
// map oracle yield. A job's UDP receivers hear their packets interleaved,
// so their states share the slab's chunks, and every third job has
// enough receivers to fill more than one chunk. Finish is called twice.
// The poisoned variant scribbles over every returned buffer and kept
// chunk at each Reset: the next job must not read a byte of it, the
// verdicts already taken from earlier traces must stand, and a trace
// kept past its job must read empty, never as the next job's.
func TestScratchServedReceiversMatchFresh(t *testing.T) {
	type receiver struct {
		lent, fresh *UDP
		oracle      *mapUDP
		stream      []packet.Packet
	}
	for _, poisoned := range []bool{false, true} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := sim.NewRNG(seed)
			var sc Scratch
			var kept []*trace.Trace
			var verdicts, want []verdict
			for job := 0; job < 6; job++ {
				// Long clips alternate with short ones, so tables and
				// buffers come back both too large and too small.
				clipFrames := 12 + rng.Intn(20)
				if job%2 == 1 {
					clipFrames += 60
				}
				clients := rng.Intn(4) // some jobs have no UDP receiver at all
				big := job%3 == 2
				if big {
					clients = 2*fragChunk/clipFrames + rng.Intn(8)
				}
				clk := &fakeClock{}
				rxs := make([]receiver, clients)
				var live []int
				for c := range rxs {
					r := &rxs[c]
					r.lent, r.fresh, r.oracle = NewUDP(clk, clipFrames), NewUDP(clk, clipFrames), newMapUDP(clk, clipFrames)
					r.lent.Scratch = &sc
					if rng.Intn(2) == 0 {
						r.lent.Tolerance, r.fresh.Tolerance, r.oracle.tolerance = SliceTolerance, SliceTolerance, SliceTolerance
					}
					if rng.Intn(5) != 0 { // otherwise policed to nothing
						r.stream = randomFragmentStream(rng, clipFrames, 0.4*rng.Float64())
						live = append(live, c)
					}
				}
				for len(live) > 0 {
					i := rng.Intn(len(live))
					r := &rxs[live[i]]
					clk.now += units.Time(rng.Intn(3)) * units.Millisecond
					p, q, o := r.stream[0], r.stream[0], r.stream[0]
					r.lent.Handle(&p)
					r.fresh.Handle(&q)
					r.oracle.handle(&o)
					if r.stream = r.stream[1:]; len(r.stream) == 0 {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				if big && sc.slab.n <= fragChunk {
					t.Fatalf("seed %d job %d: %d receivers took %d states, not enough to cross a chunk", seed, job, clients, sc.slab.n)
				}
				for c := range rxs {
					r := &rxs[c]
					got, ref := r.lent.Finish(), r.oracle.finish()
					if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(r.fresh.Finish(), ref) {
						t.Fatalf("poisoned=%v seed %d job %d client %d: lent %d, fresh %d and oracle %d frames differ",
							poisoned, seed, job, c, len(got.Records), len(r.fresh.Trace().Records), len(ref.Records))
					}
					if again := r.lent.Finish(); again != got || !reflect.DeepEqual(again, ref) {
						t.Fatalf("poisoned=%v seed %d job %d client %d: a second Finish changed the trace", poisoned, seed, job, c)
					}
					if r.lent.Packets != r.oracle.packets || r.lent.PacketsBytes != r.oracle.packetsBytes {
						t.Fatalf("poisoned=%v seed %d job %d client %d: counted %d pkts / %d B, oracle %d / %d", poisoned, seed, job, c,
							r.lent.Packets, r.lent.PacketsBytes, r.oracle.packets, r.oracle.packetsBytes)
					}
					kept = append(kept, got)
					verdicts = append(verdicts, judge(got))
					want = append(want, judge(ref))
				}

				// The TCP side: the server thins some frames, the rest
				// arrive in order in random-sized deliveries.
				lentS, freshS := NewStream(clk, clipFrames), NewStream(clk, clipFrames)
				lentS.Scratch = &sc
				lentA, freshA := &StreamAssembler{Scratch: &sc}, &StreamAssembler{}
				var total int64
				for seq := 0; seq < clipFrames; seq++ {
					if rng.Intn(4) == 0 {
						continue
					}
					n := int64(FrameHeaderSize + 100 + rng.Intn(3000))
					lentA.RegisterMessage(seq, n)
					freshA.RegisterMessage(seq, n)
					total += n
				}
				for total > 0 {
					n := min(total, int64(1+rng.Intn(4000)))
					total -= n
					clk.now += units.Time(1+rng.Intn(5)) * units.Millisecond
					lentS.OnDelivered(lentA, n)
					freshS.OnDelivered(freshA, n)
				}
				got, ref := lentS.Finish(), freshS.Finish()
				if !slices.Equal(got.Records, ref.Records) {
					t.Fatalf("poisoned=%v seed %d job %d: lent stream's trace differs from a fresh one's (%d vs %d frames)",
						poisoned, seed, job, len(got.Records), len(ref.Records))
				}
				kept = append(kept, got)
				verdicts = append(verdicts, judge(got))
				want = append(want, judge(ref))

				sc.Reset()
				if poisoned {
					sc.poison()
				}
				for i, tr := range kept {
					if len(tr.Records) != 0 {
						t.Fatalf("poisoned=%v seed %d job %d: trace %d still reads %d records after Reset",
							poisoned, seed, job, i, len(tr.Records))
					}
				}
			}
			if !slices.Equal(verdicts, want) {
				t.Fatalf("poisoned=%v seed %d: verdicts taken before Reset differ from fresh receivers'", poisoned, seed)
			}
			if len(sc.traces)+len(sc.udps)+len(sc.asms) != 0 || sc.slab.n != 0 {
				t.Fatalf("seed %d: loans outstanding after Reset", seed)
			}
		}
	}
}

// TestScratchKeepsOnlyTheLastJob: what a Scratch holds between jobs is
// what the job just ended borrowed and filled, not the high-water mark
// of every job before it — down to the slab's chunks, whose references
// past the last job's are dropped so the collector can take them.
func TestScratchKeepsOnlyTheLastJob(t *testing.T) {
	var sc Scratch
	job := func(receivers, frames int) {
		for i := 0; i < receivers; i++ {
			c := NewUDP(&fakeClock{}, frames)
			c.Scratch = &sc
			for seq := 0; seq < frames; seq++ {
				c.Handle(frag(seq, 0, 1))
			}
			c.Finish()
		}
		sc.Reset()
	}
	job(8, 300) // 2,400 states: three chunks
	if len(sc.records) != 8 || len(sc.slots) != 8 || len(sc.slab.chunks) != 3 {
		t.Fatalf("after 8 receivers of 300 frames the Scratch holds %d/%d buffers and %d chunks",
			len(sc.records), len(sc.slots), len(sc.slab.chunks))
	}
	job(2, 10)
	if len(sc.records) != 2 || len(sc.slots) != 2 || len(sc.slab.chunks) != 1 {
		t.Errorf("after a 2-receiver job the Scratch holds %d/%d buffers and %d chunks, want 2/2 and 1",
			len(sc.records), len(sc.slots), len(sc.slab.chunks))
	}
	for i, ch := range sc.slab.chunks[1:cap(sc.slab.chunks)] {
		if ch != nil {
			t.Errorf("chunk %d, unused by the last job, is still referenced", i+1)
		}
	}
}

package client

import (
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

	// Frame 2 was the first receiver's slab entry 2, frame 6 its entry 3
	// (half received) and frame 900 its entry 4: every one of them a
	// stale index into a slab that is now empty.
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
// buffer off the free lists, allocates no slot table, still answers
// Trace with an empty trace of its clip's length, and gives Reset
// nothing to file.
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
	if silent.slots != nil || len(sc.traces) != 0 || len(sc.udps) != 0 || len(sc.asms) != 0 {
		t.Errorf("silent receivers borrowed: slots %v, %d trace, %d UDP and %d assembler loans",
			silent.slots, len(sc.traces), len(sc.udps), len(sc.asms))
	}
	if len(sc.records) != 1 || len(sc.slabs) != 1 || len(sc.slots) != 1 {
		t.Errorf("free lists moved under silent receivers: %d/%d/%d buffers, want 1/1/1",
			len(sc.records), len(sc.slabs), len(sc.slots))
	}

	// A receiver that heard only cross traffic borrowed, grew nothing but
	// its slot table, and must not file empty buffers for the next job.
	var fresh Scratch
	idle := NewUDP(&fakeClock{}, 10)
	idle.Scratch = &fresh
	idle.Handle(frag(-1, 0, 1))
	idle.Finish()
	fresh.Reset()
	if len(fresh.records) != 0 || len(fresh.slabs) != 0 || len(fresh.slots) != 1 {
		t.Errorf("idle receiver returned %d/%d/%d buffers, want only its slot table",
			len(fresh.records), len(fresh.slabs), len(fresh.slots))
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
// capacity, with values no receiver would survive reading: slab indices
// far out of range, frames already emitted, records of frames that do
// not exist.
func (s *Scratch) poison() {
	for _, b := range s.records {
		b = b[:cap(b)]
		for i := range b {
			b[i] = trace.FrameRecord{Seq: -7, Arrival: -1, Presentation: -1, Frags: 99, LostFrags: 99}
		}
	}
	for _, b := range s.slabs {
		b = b[:cap(b)]
		for i := range b {
			b[i] = fragState{seq: -7, total: 1, received: 1, gotFirst: true, emitted: true, last: -1}
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
// property: a sequence of jobs — each a few UDP receivers and a TCP
// stream, over alternating clip lengths, under random loss, reordering,
// late duplicates, cross traffic and frames past the clip, with and
// without concealment — served by one Scratch with a Reset between jobs
// yields the traces fresh receivers yield. The poisoned variant scribbles
// over every returned buffer at each Reset: the next job must not read a
// byte of it, the verdicts already taken from earlier traces must stand,
// and a trace kept past its job must read empty, never as the next job's.
func TestScratchServedReceiversMatchFresh(t *testing.T) {
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
				tolerant := rng.Intn(2) == 0
				clients := rng.Intn(4) // some jobs have no UDP receiver at all
				for c := 0; c < clients; c++ {
					stream := randomFragmentStream(rng, clipFrames, 0.4*rng.Float64())
					if rng.Intn(5) == 0 {
						stream = nil // policed to nothing
					}
					clk := &fakeClock{}
					lent, fresh := NewUDP(clk, clipFrames), NewUDP(clk, clipFrames)
					lent.Scratch = &sc
					if tolerant {
						lent.Tolerance, fresh.Tolerance = SliceTolerance, SliceTolerance
					}
					for i := range stream {
						clk.now += units.Time(1+rng.Intn(5)) * units.Millisecond
						p, q := stream[i], stream[i]
						lent.Handle(&p)
						fresh.Handle(&q)
					}
					got, ref := lent.Finish(), fresh.Finish()
					if !slices.Equal(got.Records, ref.Records) {
						t.Fatalf("poisoned=%v seed %d job %d client %d: lent receiver's trace differs from a fresh one's (%d vs %d frames)",
							poisoned, seed, job, c, len(got.Records), len(ref.Records))
					}
					kept = append(kept, got)
					verdicts = append(verdicts, judge(got))
					want = append(want, judge(ref))
				}

				// The TCP side: the server thins some frames, the rest
				// arrive in order in random-sized deliveries.
				clk := &fakeClock{}
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
			if len(sc.traces)+len(sc.udps)+len(sc.asms) != 0 {
				t.Fatalf("seed %d: loans outstanding after Reset", seed)
			}
		}
	}
}

// TestScratchKeepsOnlyTheLastJob: what a Scratch holds between jobs is
// what the job just ended borrowed and grew, not the high-water mark of
// every job before it.
func TestScratchKeepsOnlyTheLastJob(t *testing.T) {
	var sc Scratch
	job := func(receivers int) {
		for i := 0; i < receivers; i++ {
			c := NewUDP(&fakeClock{}, 10)
			c.Scratch = &sc
			c.Handle(frag(i%10, 0, 1))
			c.Finish()
		}
		sc.Reset()
	}
	job(8)
	if len(sc.records) != 8 || len(sc.slabs) != 8 || len(sc.slots) != 8 {
		t.Fatalf("after 8 receivers the free lists hold %d/%d/%d", len(sc.records), len(sc.slabs), len(sc.slots))
	}
	job(2)
	if len(sc.records) != 2 || len(sc.slabs) != 2 || len(sc.slots) != 2 {
		t.Errorf("after a 2-receiver job the free lists hold %d/%d/%d, want 2/2/2",
			len(sc.records), len(sc.slabs), len(sc.slots))
	}
}

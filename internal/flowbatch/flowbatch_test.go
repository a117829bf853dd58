package flowbatch

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// timerFunc adapts a closure to sim.Timer. Tests only: production code
// schedules through long-lived Timer values.
type timerFunc func()

func (f timerFunc) Fire(units.Time) { f() }

// emission is what the comparison tests record at a chain's exit.
type emission struct {
	at       units.Time
	flow     packet.FlowID
	size     int
	frameSeq int
	sentAt   units.Time
}

// recorder is a terminal handler capturing every packet's identity.
type recorder struct {
	sim  *sim.Simulator
	pool *packet.Pool
	got  []emission
}

func (r *recorder) Handle(p *packet.Packet) {
	r.got = append(r.got, emission{r.sim.Now(), p.Flow, p.Size, p.FrameSeq, p.SentAt})
	r.pool.Put(p)
}

// TestPacedScheduleMatchesServer pins the shared schedule to what a
// real server.Paced emits: same instants, sizes and frame metadata.
func TestPacedScheduleMatchesServer(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	sched := PacedSchedule(enc)
	if len(sched.Entries) == 0 {
		t.Fatal("empty schedule")
	}

	s := sim.New(1)
	pool := packet.NewPool()
	rec := &recorder{sim: s, pool: pool}
	srv := &server.Paced{Sim: s, Enc: enc, Flow: 7, Next: rec, Pool: pool}
	srv.Start()
	s.Run()

	if len(rec.got) != len(sched.Entries) {
		t.Fatalf("server sent %d packets, schedule has %d entries", len(rec.got), len(sched.Entries))
	}
	var bytes int64
	for i, e := range sched.Entries {
		g := rec.got[i]
		if g.at != e.At || g.size != e.Size || g.frameSeq != int(e.FrameSeq) {
			t.Fatalf("entry %d: schedule (at=%v size=%d frame=%d) vs server (at=%v size=%d frame=%d)",
				i, e.At, e.Size, e.FrameSeq, g.at, g.size, g.frameSeq)
		}
		bytes += int64(e.Size)
	}
	if bytes != sched.Bytes || bytes != srv.SentBytes {
		t.Errorf("bytes: schedule sum %d, Schedule.Bytes %d, server %d", bytes, sched.Bytes, srv.SentBytes)
	}
}

// TestCachedPacedScheduleShares pins the one-plan-per-encoding
// sharing discipline.
func TestCachedPacedScheduleShares(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	if CachedPacedSchedule(enc) != CachedPacedSchedule(enc) {
		t.Error("cached schedule not shared")
	}
}

// buildChain hand-wires the real access-link + jitter chain a batched
// source folds: link(rate, delay, FIFO) → jitter(max) → next.
func buildChain(s *sim.Simulator, pool *packet.Pool, spec ChainSpec, next packet.Handler) packet.Handler {
	j := &link.Jitter{Sim: s, Max: spec.JitterMax, Next: next}
	l := link.New(s, spec.AccessRate, spec.AccessDelay, queue.NewSingleFIFO(0), j)
	l.Pool = pool
	return l
}

// oneClass builds the homogeneous fan-out: a single-class mixture of n
// flows started offset apart, all feeding next.
func oneClass(s *sim.Simulator, sched *Schedule, n int, base packet.FlowID, offset units.Time,
	chain ChainSpec, next packet.Handler, pool *packet.Pool) *BatchedMixture {
	return &BatchedMixture{Sim: s, BaseFlow: base, Next: []packet.Handler{next}, Pool: pool,
		Classes: []MixtureClass{{Sched: sched, N: n, Offset: offset, Chain: chain}}}
}

// TestMixtureFoldsChainExactly compares a one-class mixture
// against per-flow server-style emissions through real link and
// jitter elements, with a synthetic schedule that includes
// back-to-back same-instant entries — forcing the access link to
// queue, so the busyUntil serialization emulation is exercised, not
// just the idle path. Both simulations share a seed, so the jitter
// draws must line up in global arrival order for the outputs to
// match.
func TestMixtureFoldsChainExactly(t *testing.T) {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(42))
	var at units.Time
	for i := 0; i < 300; i++ {
		// Clumped arrivals: several entries at the same instant, then a
		// short gap — far denser than the access link drains.
		burst := 1 + rng.Intn(3)
		for j := 0; j < burst; j++ {
			size := 200 + rng.Intn(1300)
			sched.Entries = append(sched.Entries, Entry{
				At: at, Size: size, FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(burst),
			})
			sched.Bytes += int64(size)
		}
		at += units.Time(rng.Intn(400_000)) // up to 400 µs, ns granular
	}
	// Off-round-number parameters keep cross-flow arrival instants off
	// a shared lattice: exact same-tick ties across flows are where
	// batched fan-out order (flow index) and a real event queue's
	// scheduling order could legitimately differ, and the fold's
	// exactness contract excludes them (see the package comment).
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 3
	offset := units.Time(1_712_345) // ~1.7 ms

	// Reference: n per-flow chains of real elements, fed by scheduled
	// emissions in the same merged (time, flow) order the batched
	// source produces.
	s1 := sim.New(99)
	pool1 := packet.NewPool()
	ref := &recorder{sim: s1, pool: pool1}
	chains := make([]packet.Handler, n)
	for i := 0; i < n; i++ {
		chains[i] = buildChain(s1, pool1, chain, ref)
	}
	type em struct {
		at   units.Time
		flow int
		e    Entry
	}
	var ems []em
	for i := 0; i < n; i++ {
		for _, e := range sched.Entries {
			ems = append(ems, em{units.Time(int64(i))*offset + e.At, i, e})
		}
	}
	sort.SliceStable(ems, func(a, b int) bool {
		if ems[a].at != ems[b].at {
			return ems[a].at < ems[b].at
		}
		return ems[a].flow < ems[b].flow
	})
	for _, m := range ems {
		m := m
		s1.AtTimer(m.at, timerFunc(func() {
			p := pool1.Get()
			p.Flow = 100 + packet.FlowID(m.flow)
			p.Size = m.e.Size
			p.FrameSeq = int(m.e.FrameSeq)
			p.SentAt = s1.Now()
			chains[m.flow].Handle(p)
		}))
	}
	s1.Run()

	// Batched: one source, folded chain, same seed.
	s2 := sim.New(99)
	pool2 := packet.NewPool()
	got := &recorder{sim: s2, pool: pool2}
	src := oneClass(s2, sched, n, 100, offset, chain, got, pool2)
	src.Start()
	s2.Run()

	if len(got.got) != len(ref.got) {
		t.Fatalf("batched delivered %d packets, reference %d", len(got.got), len(ref.got))
	}
	for i := range ref.got {
		w, g := ref.got[i], got.got[i]
		if w.at != g.at || w.flow != g.flow || w.size != g.size ||
			w.frameSeq != g.frameSeq || w.sentAt != g.sentAt {
			t.Fatalf("packet %d diverged:\nreference %+v\nbatched   %+v", i, w, g)
		}
	}
	if src.TotalSent() != n*len(sched.Entries) {
		t.Errorf("TotalSent = %d, want %d", src.TotalSent(), n*len(sched.Entries))
	}
}

// runBatchedAtWidth runs the clumped-schedule batched fixture on a
// calendar pinned to the given bucket width (0 = adaptive) and
// returns the delivered stream.
func runBatchedAtWidth(sched *Schedule, width units.Time) (*sim.Simulator, []emission) {
	s := sim.NewWithBucketWidth(77, width)
	pool := packet.NewPool()
	got := &recorder{sim: s, pool: pool}
	src := oneClass(s, sched, 4, 200, 1_712_345,
		ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
			JitterMax: 3 * units.Millisecond}, got, pool)
	src.Start()
	s.Run()
	return s, got.got
}

// TestMixtureWidthInvariant pins calendar geometry out of the
// results: the same batched simulation run under the adaptive default
// and under pinned widths far finer and far coarser than the traffic
// spacing must deliver byte-identical packet streams — same instants,
// flows, sizes and jitter draws (seeded RNG consumed in the same
// event order). Bucket width is a performance knob only.
func TestMixtureWidthInvariant(t *testing.T) {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(9))
	var at units.Time
	for i := 0; i < 800; i++ {
		burst := 1 + rng.Intn(3)
		for j := 0; j < burst; j++ {
			size := 200 + rng.Intn(1300)
			sched.Entries = append(sched.Entries, Entry{
				At: at, Size: size, FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(burst),
			})
			sched.Bytes += int64(size)
		}
		at += units.Time(rng.Intn(400_000))
	}

	s, adaptive := runBatchedAtWidth(sched, 0)
	if len(adaptive) == 0 {
		t.Fatal("adaptive run delivered nothing")
	}
	if qs := s.QueueStats(); qs.Rebases == 0 {
		t.Fatalf("adaptive run never rebased — fixture too short to exercise the policy: %+v", qs)
	}
	for _, width := range []units.Time{units.Microsecond, 4 * units.Millisecond} {
		_, pinned := runBatchedAtWidth(sched, width)
		if len(pinned) != len(adaptive) {
			t.Fatalf("width %v delivered %d packets, adaptive %d", width, len(pinned), len(adaptive))
		}
		for i := range adaptive {
			if adaptive[i] != pinned[i] {
				t.Fatalf("width %v: packet %d diverged:\nadaptive %+v\npinned   %+v",
					width, i, adaptive[i], pinned[i])
			}
		}
	}
}

// TestBatchedCBREquivalence pins BatchedCBR to N plain CBR sources
// started in flow-id order: same ticks, same per-flow packets up to the
// same simulator horizon.
func TestBatchedCBREquivalence(t *testing.T) {
	const n = 4
	rate := 2 * units.Mbps
	horizon := 500 * units.Millisecond

	s1 := sim.New(5)
	pool1 := packet.NewPool()
	ref := &recorder{sim: s1, pool: pool1}
	for i := 0; i < n; i++ {
		src := &traffic.CBR{Sim: s1, Rate: rate, Size: 1200, Flow: 50 + packet.FlowID(i),
			DSCP: packet.AF12, Next: ref, Pool: pool1}
		src.Start()
	}
	s1.SetHorizon(horizon)
	s1.Run()

	s2 := sim.New(5)
	pool2 := packet.NewPool()
	got := &recorder{sim: s2, pool: pool2}
	src := &BatchedCBR{Sim: s2, Rate: rate, Size: 1200, BaseFlow: 50, DSCP: packet.AF12,
		N: n, Next: got, Pool: pool2}
	src.Start()
	s2.SetHorizon(horizon)
	s2.Run()

	if len(got.got) != len(ref.got) || len(got.got) == 0 {
		t.Fatalf("batched emitted %d packets, reference %d", len(got.got), len(ref.got))
	}
	for i := range ref.got {
		if ref.got[i] != got.got[i] {
			t.Fatalf("packet %d diverged:\nreference %+v\nbatched   %+v", i, ref.got[i], got.got[i])
		}
	}
	if src.Sent != len(got.got) {
		t.Errorf("Sent = %d, want %d", src.Sent, len(got.got))
	}
}

// TestFlowHeapOrdering property-tests the wheel's oracle (wheel_test.go):
// pops come out in (key, index) order under interleaved pushes and key
// advances.
func TestFlowHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]units.Time, 64)
	h := flowHeap{idx: make([]int32, 0, len(keys)), key: keys}
	for i := range keys {
		keys[i] = units.Time(rng.Intn(1000))
		h.push(int32(i))
	}
	var prevKey units.Time = -1
	var prevIdx int32 = -1
	for h.len() > 0 {
		i := h.min()
		if keys[i] < prevKey || (keys[i] == prevKey && i < prevIdx) {
			t.Fatalf("heap order violated: (%d,%d) after (%d,%d)", keys[i], i, prevKey, prevIdx)
		}
		prevKey, prevIdx = keys[i], i
		if rng.Intn(3) == 0 {
			// Advance the root's key in place, as the arrival walk does.
			keys[i] += units.Time(rng.Intn(500))
			h.fixMin()
			prevKey, prevIdx = -1, -1
			continue
		}
		h.pop()
	}
}

// TestTimeFIFOsMatchSlices drives the shared-slab per-flow FIFOs and
// plain per-flow slices through the same random interleaved push/pop
// sequence over 64 flows, and pins node reuse: the slab never grows
// past the high-water mark of simultaneously pending entries.
func TestTimeFIFOsMatchSlices(t *testing.T) {
	const flows = 64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newTimeFIFOs(flows)
		ref := make([][]units.Time, flows)
		pending, highWater := 0, 0
		// Phases alternate between filling and draining so the free
		// chain is exercised at every depth, including fully drained.
		for step := 0; step < 20_000; step++ {
			g := int32(rng.Intn(flows))
			fill := (step/500)%2 == 0
			if len(ref[g]) == 0 || (fill && rng.Intn(3) > 0) || (!fill && rng.Intn(3) == 0) {
				at := units.Time(rng.Int63n(1 << 40))
				f.push(g, at)
				ref[g] = append(ref[g], at)
				pending++
				if pending > highWater {
					highWater = pending
				}
			} else {
				if got := f.peek(g); got != ref[g][0] {
					t.Fatalf("seed %d step %d: peek(%d) = %v, want %v", seed, step, g, got, ref[g][0])
				}
				if got := f.pop(g); got != ref[g][0] {
					t.Fatalf("seed %d step %d: pop(%d) = %v, want %v", seed, step, g, got, ref[g][0])
				}
				ref[g] = ref[g][1:]
				pending--
			}
			if f.empty(g) != (len(ref[g]) == 0) {
				t.Fatalf("seed %d step %d: empty(%d) = %v with %d pending", seed, step, g, f.empty(g), len(ref[g]))
			}
			if len(f.nodes) > highWater {
				t.Fatalf("seed %d step %d: slab holds %d nodes, high-water of pending entries is %d",
					seed, step, len(f.nodes), highWater)
			}
		}
		// Every node is on exactly one chain: a flow's FIFO or the free
		// chain.
		seen := make([]bool, len(f.nodes))
		walk := func(what string, i int32) {
			for ; i >= 0; i = f.nodes[i].next {
				if seen[i] {
					t.Fatalf("seed %d: node %d reached twice (%s)", seed, i, what)
				}
				seen[i] = true
			}
		}
		for g := range f.ends {
			walk("fifo", f.ends[g].head)
		}
		walk("free", f.free)
		for i, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: node %d is on no chain", seed, i)
			}
		}
	}
}

package flowbatch

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// clumpedSchedule builds the same kind of adversarial plan the fold
// test uses: same-instant bursts that force access-link queuing.
func clumpedSchedule(seed int64, frames int) *Schedule {
	sched := &Schedule{}
	rng := rand.New(rand.NewSource(seed))
	var at units.Time
	for i := 0; i < frames; i++ {
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
	return sched
}

// runSerial drives a one-class mixture to the horizon (0 = drain) and
// returns its emissions plus per-flow counters.
func runSerial(sched *Schedule, chain ChainSpec, n int, offset, horizon units.Time) (*recorder, *BatchedMixture) {
	s := sim.New(99)
	pool := packet.NewPool()
	rec := &recorder{sim: s, pool: pool}
	src := oneClass(s, sched, n, 100, offset, chain, rec, pool)
	src.Start()
	if horizon > 0 {
		s.SetHorizon(horizon)
	}
	s.Run()
	return rec, src
}

// syncPipeline drives the stages inline, one lookahead window per
// step, in the hand-off order of runPipeline's goroutines: shard
// arrival walks, jitter sequencing, border replay.
type syncPipeline struct {
	mix      *BatchedMixture
	sas      []*shardArrivals
	seq      *jitterSequencer
	chunks   [][]arrival
	dels     []delivery
	frontier units.Time
	window   units.Time
}

func newSyncPipeline(mix *BatchedMixture, shards int, horizon, window units.Time) *syncPipeline {
	sas, seq, _ := mix.stages(shards, horizon)
	return &syncPipeline{mix: mix, sas: sas, seq: seq, window: window,
		chunks: make([][]arrival, len(sas))}
}

// step walks, sequences and replays one window and reports whether
// every shard's walk is done.
func (p *syncPipeline) step() bool {
	p.frontier += p.window
	done := true
	for i, sa := range p.sas {
		sa.advanceTo(p.frontier)
		p.chunks[i] = sa.out
		done = done && sa.done()
	}
	p.replay(p.seq.feed(p.chunks, p.frontier, p.dels[:0]))
	for _, sa := range p.sas {
		sa.out = sa.out[:0]
	}
	return done
}

// replay injects released deliveries on the mixture's simulator, the
// border, at their instants.
func (p *syncPipeline) replay(dels []delivery) {
	p.dels = dels
	border := p.mix.Sim
	for i := range dels {
		d := &dels[i]
		border.RunBefore(d.at)
		border.AdvanceTo(d.at)
		p.mix.inject(d.flow, d.entry)
	}
}

// runSharded drives a one-class mixture through the stages in windows
// of the given width to the horizon (0 = drain).
func runSharded(t *testing.T, sched *Schedule, chain ChainSpec, n, shards int, offset, horizon, window units.Time) (*recorder, *BatchedMixture) {
	t.Helper()
	border := sim.New(99)
	pool := packet.NewPool()
	rec := &recorder{sim: border, pool: pool}
	bp := oneClass(border, sched, n, 100, offset, chain, rec, pool)
	p := newSyncPipeline(bp, shards, horizon, window)
	for !p.step() {
	}
	p.replay(p.seq.flush(p.dels[:0]))
	if horizon > 0 {
		border.SetHorizon(horizon)
	}
	border.Run()
	return rec, bp
}

// TestShardedPipelineMatchesSerial pins the decomposition: for shard
// counts 1–4 and several window widths, the sharded pipeline delivers
// the identical packet sequence (instants, flows, sizes, frame
// metadata, send stamps) and identical per-flow counters as the serial
// mixture with the same seed.
func TestShardedPipelineMatchesSerial(t *testing.T) {
	sched := clumpedSchedule(42, 300)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 5
	offset := units.Time(1_712_345)

	ref, refSrc := runSerial(sched, chain, n, offset, 0)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, window := range []units.Time{700 * units.Microsecond, 10 * units.Millisecond, units.FromSeconds(1)} {
			got, gotSrc := runSharded(t, sched, chain, n, shards, offset, 0, window)
			compareEmissions(t, ref, got, shards, window)
			for i := 0; i < n; i++ {
				if refSrc.Sent[i] != gotSrc.Sent[i] || refSrc.SentBytes[i] != gotSrc.SentBytes[i] {
					t.Errorf("shards=%d window=%v flow %d: sent %d/%d bytes, serial %d/%d",
						shards, window, i, gotSrc.Sent[i], gotSrc.SentBytes[i], refSrc.Sent[i], refSrc.SentBytes[i])
				}
			}
		}
	}
}

// TestShardedPipelineHorizonParity pins the truncation semantics: a
// horizon that cuts the run mid-schedule must drop exactly the same
// tail in both modes (the serial event loop stops firing deliveries
// past the horizon; the sequencer drops them explicitly).
func TestShardedPipelineHorizonParity(t *testing.T) {
	sched := clumpedSchedule(7, 400)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond,
		JitterMax: 3 * units.Millisecond}
	const n = 4
	offset := units.Time(1_712_345)
	span := sched.Entries[len(sched.Entries)-1].At
	horizon := span / 2 // mid-schedule cut

	ref, _ := runSerial(sched, chain, n, offset, horizon)
	if len(ref.got) == 0 {
		t.Fatal("horizon truncated everything; test is vacuous")
	}
	got, _ := runSharded(t, sched, chain, n, 3, offset, horizon, 5*units.Millisecond)
	compareEmissions(t, ref, got, 3, 5*units.Millisecond)
}

// TestShardedZeroJitter pins the degenerate chain (no RNG draws at
// all): deliveries at exact arrival instants, including same-instant
// cross-flow ties resolved by flow order.
func TestShardedZeroJitter(t *testing.T) {
	sched := clumpedSchedule(13, 200)
	chain := ChainSpec{AccessRate: 9_700_000, AccessDelay: 500 * units.Microsecond}
	const n = 4
	ref, _ := runSerial(sched, chain, n, 0, 0) // zero offset: maximal ties
	got, _ := runSharded(t, sched, chain, n, 4, 0, 0, 3*units.Millisecond)
	compareEmissions(t, ref, got, 4, 3*units.Millisecond)
}

func compareEmissions(t *testing.T, ref, got *recorder, shards int, window units.Time) {
	t.Helper()
	if len(got.got) != len(ref.got) {
		t.Fatalf("shards=%d window=%v: delivered %d packets, serial %d",
			shards, window, len(got.got), len(ref.got))
	}
	for i := range ref.got {
		w, g := ref.got[i], got.got[i]
		if w != g {
			t.Fatalf("shards=%d window=%v packet %d diverged:\nserial  %+v\nsharded %+v",
				shards, window, i, w, g)
		}
	}
}

// TestSortWindowScratchReuse is a property test of sortWindow over
// both branches — radix at or above radixMinLen, comparator below it
// and for spans too wide to pack — with a scratch that is nil, shorter
// than, as long as or longer than the batch. The result must equal a
// stable sort by (At, Flow, Entry): records of one flow enter in draw
// order, as in the sequencer. The returned scratch must not alias the
// batch, must hold a radix-sized batch without growing, and must sort
// the next batch correctly.
func TestSortWindowScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	batch := func(n int, span units.Time, flows int32) []arrival {
		b := make([]arrival, n)
		drawn := make(map[int32]int32)
		for i := range b {
			f := rng.Int31n(flows)
			b[i] = arrival{at: units.Time(rng.Int63n(int64(span))), flow: f, entry: drawn[f]}
			drawn[f]++
		}
		return b
	}
	check := func(label string, b, scratch []arrival, radix bool) []arrival {
		t.Helper()
		want := slices.Clone(b)
		slices.SortStableFunc(want, compareArrivals)
		got := sortWindow(b, scratch)
		if !slices.Equal(b, want) {
			t.Fatalf("%s: order differs from the stable (At, Flow, Entry) sort", label)
		}
		if radix && len(b) >= radixMinLen && cap(got) < len(b) {
			t.Fatalf("%s: returned scratch cap %d cannot hold the batch of %d", label, cap(got), len(b))
		}
		if cap(got) > 0 && len(b) > 0 && &got[:1][0] == &b[0] {
			t.Fatalf("%s: returned scratch aliases the batch", label)
		}
		return got
	}
	wide := units.Time(1) << 62
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4*radixMinLen)
		span, flows := units.Time(1+rng.Intn(50_000)), int32(1+rng.Intn(1<<17))
		if trial%10 == 0 {
			span = wide // forces the comparator fallback at any length
		}
		for _, sc := range []int{-1, 0, n / 2, n, 2 * n} {
			var scratch []arrival
			if sc >= 0 {
				scratch = make([]arrival, sc, sc+rng.Intn(3))
			}
			label := fmt.Sprintf("trial %d n=%d span=%d flows=%d scratch=%d", trial, n, span, flows, sc)
			scratch = check(label, batch(n, span, flows), scratch, span != wide)
			next := 1 + rng.Intn(cap(scratch)+radixMinLen)
			check(label+" reused", batch(next, span, flows), scratch, span != wide)
		}
	}
}

// denseBorderFixture assembles a warmed pipeline for allocation
// measurement: a one-class mixture of four virtual flows on a dense
// synthetic schedule dealt round-robin over two shard walkers, the
// zero-jitter degenerate sequencer (an exactly periodic steady state),
// and a border link so replay exercises the real event path, not just
// the fan-out.
func denseBorderFixture(tap *ptrace.Recorder) *syncPipeline {
	sched := &Schedule{}
	for i := 0; i < 12000; i++ {
		sched.Entries = append(sched.Entries, Entry{
			At: units.Time(i) * 500 * units.Microsecond, Size: 1200,
			FrameSeq: int32(i / 4), FragIndex: int32(i % 4), FragCount: 4,
		})
	}
	s := sim.New(1)
	pool := packet.NewPool()
	sink := packet.Sink{Pool: pool}
	l := link.New(s, 100*units.Mbps, 500*units.Microsecond, queue.NewEFPriority(0, 0), &sink)
	l.Pool = pool
	mix := oneClass(s, sched, 4, 10, 7*units.Millisecond,
		ChainSpec{AccessRate: 100 * units.Mbps, AccessDelay: 500 * units.Microsecond}, l, pool)
	if tap != nil {
		tap.SetClock(s)
		mix.Tap, mix.Hop = tap, tap.Hop("vflows")
		l.Tap, l.Hop = tap, tap.Hop("border")
	}
	p := newSyncPipeline(mix, 2, 0, 10*units.Millisecond)
	for i := 0; i < 20; i++ { // warm buffers, pools, rings
		p.stepBorder()
	}
	return p
}

// stepBorder is one step that also runs the border up to the frontier.
func (p *syncPipeline) stepBorder() {
	p.step()
	p.mix.Sim.RunBefore(p.frontier)
}

// TestShardBorderMergeAllocationBudget pins the sharded border-merge
// hot path at zero allocations once warm: walking arrivals, merging
// and releasing deliveries, and replaying them through the border
// link must all run on reused buffers, pooled packets and pooled
// events.
func TestShardBorderMergeAllocationBudget(t *testing.T) {
	p := denseBorderFixture(nil)
	allocs := testing.AllocsPerRun(100, p.stepBorder)
	if allocs != 0 {
		t.Errorf("sharded border-merge hot path allocates %.2f/op, want 0", allocs)
	}
	if p.mix.TotalSent() == 0 {
		t.Fatal("fixture injected nothing — budget measured an idle pipeline")
	}
}

// TestShardBorderMergeTracedAllocationBudget pins the same path with a
// ring Recorder tapping both the fan-out and the border link: Emit
// writes into preallocated storage, so the traced budget is still
// zero.
func TestShardBorderMergeTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	p := denseBorderFixture(rec)
	allocs := testing.AllocsPerRun(100, p.stepBorder)
	if allocs != 0 {
		t.Errorf("traced sharded border-merge hot path allocates %.2f/op, want 0", allocs)
	}
	if p.mix.TotalSent() == 0 || rec.Seen() == 0 {
		t.Fatal("fixture injected nothing or tap not wired")
	}
}

// rampPipelineAlloc builds a one-class mixture whose n flows start
// evenly over startWindow and each play play of the clip, runs its
// pipeline on two shards into a bare border simulator, and reports the
// bytes the pipeline allocated and its largest window in deliveries.
// With startWindow ≤ play every flow is live at the plateau, so the
// peak window is set by n alone and startWindow sets only how many
// windows the ramp takes. The chain and the horizon (the last flow's
// last emission plus a 5 s drain) are the multi-flow topology's.
func rampPipelineAlloc(t *testing.T, n int, startWindow, play units.Time) (bytes, mallocs uint64, peak int) {
	t.Helper()
	sched := TruncateSchedule(CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), play)
	offset := startWindow / units.Time(n)
	mix := &BatchedMixture{Sim: sim.New(3), Next: []packet.Handler{&packet.Sink{}},
		Classes: []MixtureClass{{Sched: sched, N: n, Offset: offset,
			Chain: ChainSpec{AccessRate: 100 * units.Mbps, AccessDelay: 500 * units.Microsecond,
				JitterMax: 3 * units.Millisecond}}}}
	horizon := units.Time(int64(n))*offset + sched.Entries[len(sched.Entries)-1].At + units.FromSeconds(5)
	sas, seq, w := mix.stages(2, horizon)
	border := sim.New(1)
	counts := make([]int, horizon/w+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := runPipeline(border, sas, seq, w, horizon, func(flow, entry int32) {
		counts[border.Now()/w]++
	})
	runtime.ReadMemStats(&after)
	if st.Injected == 0 {
		t.Fatal("ramp run injected nothing")
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, slices.Max(counts)
}

// TestShardedRampAllocationFollowsPeak pins the pipeline's buffers to
// its peak window rather than its ramp, which the warmed, periodic
// fixture of TestShardBorderMergeAllocationBudget cannot see. A ramp
// 4× longer at the same peak has 4× the windows that set a new high
// water: a sort scratch re-made at exact length for each of them
// allocates in proportion (~90 peak windows' worth of records on the
// longer ramp), and chunk buffers grown by append from nil pay a dozen
// small steps per buffer (~380 objects). Sized from the windows already
// seen, each buffer is re-made a few times over the whole ramp: ~40–47
// peak windows in ~150–170 objects at either ramp length. The bounds
// are 64 windows, 220 objects and 25 % growth from the shorter ramp.
func TestShardedRampAllocationFollowsPeak(t *testing.T) {
	const n = 1500
	play := 1500 * units.Millisecond
	rec := uint64(unsafe.Sizeof(arrival{}))
	var short uint64
	for _, ramp := range []units.Time{play / 4, play} {
		bytes, mallocs, peak := rampPipelineAlloc(t, n, ramp, play)
		windows := float64(bytes) / float64(uint64(peak)*rec)
		t.Logf("%v ramp: pipeline allocated %d B in %d objects, %.1f peak windows of %d deliveries", ramp, bytes, mallocs, windows, peak)
		if windows > 64 {
			t.Errorf("%v ramp: pipeline allocated %.1f peak windows' worth of records, want ≤ 64", ramp, windows)
		}
		if mallocs > 220 {
			t.Errorf("%v ramp: pipeline allocated %d objects, want ≤ 220", ramp, mallocs)
		}
		if short == 0 {
			short = bytes
		} else if float64(bytes) > 1.25*float64(short) {
			t.Errorf("4× longer ramp at the same peak allocates %d B against %d B (> 1.25×)", bytes, short)
		}
	}
}

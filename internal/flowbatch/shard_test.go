package flowbatch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
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

// runSharded drives the decomposed pipeline: per-shard arrival walks
// in lookahead windows, central jitter sequencing, border replay.
func runSharded(t *testing.T, sched *Schedule, chain ChainSpec, n, shards int, offset, horizon, window units.Time) (*recorder, *BatchedMixture) {
	t.Helper()
	border := sim.New(99)
	pool := packet.NewPool()
	rec := &recorder{sim: border, pool: pool}
	bp := oneClass(border, sched, n, 100, offset, chain, rec, pool)
	bp.InitReplay()

	base := BaseArrivals(sched, chain)
	sas := make([]*ShardArrivals, shards)
	for s := 0; s < shards; s++ {
		sa := &ShardArrivals{Horizon: horizon}
		for i := s; i < n; i += shards {
			sa.Flows = append(sa.Flows, int32(i))
			sa.Start = append(sa.Start, bp.StartOf(i))
			sa.Bases = append(sa.Bases, base)
		}
		sa.Init()
		sas[s] = sa
	}
	jmOf := make([]units.Time, n)
	for i := range jmOf {
		jmOf[i] = chain.JitterMax
	}
	seq := &JitterSequencer{RNG: border.RNG(), JitterMaxOf: jmOf, Horizon: horizon}
	seq.Init()

	chunks := make([][]Arrival, shards)
	var dels []Delivery
	replay := func(dels []Delivery) {
		for _, d := range dels {
			border.RunBefore(d.At)
			border.AdvanceTo(d.At)
			bp.Inject(d.Flow, d.Entry)
		}
	}
	for frontier := window; ; frontier += window {
		done := true
		for s, sa := range sas {
			sa.AdvanceTo(frontier)
			chunks[s], sa.Out = sa.Out, chunks[s][:0]
			if !sa.Done() {
				done = false
			}
		}
		dels = seq.Feed(chunks, frontier, dels[:0])
		replay(dels)
		if done {
			break
		}
	}
	replay(seq.Flush(dels[:0]))
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
	batch := func(n int, span units.Time, flows int32) []Arrival {
		b := make([]Arrival, n)
		drawn := make(map[int32]int32)
		for i := range b {
			f := rng.Int31n(flows)
			b[i] = Arrival{At: units.Time(rng.Int63n(int64(span))), Flow: f, Entry: drawn[f]}
			drawn[f]++
		}
		return b
	}
	check := func(label string, b, scratch []Arrival, radix bool) []Arrival {
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
			var scratch []Arrival
			if sc >= 0 {
				scratch = make([]Arrival, sc, sc+rng.Intn(3))
			}
			label := fmt.Sprintf("trial %d n=%d span=%d flows=%d scratch=%d", trial, n, span, flows, sc)
			scratch = check(label, batch(n, span, flows), scratch, span != wide)
			next := 1 + rng.Intn(cap(scratch)+radixMinLen)
			check(label+" reused", batch(next, span, flows), scratch, span != wide)
		}
	}
}

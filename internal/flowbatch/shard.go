package flowbatch

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/units"
)

// The sharded pipeline's stages, its goroutine plumbing and the
// constructor that builds both from a mixture; the package comment
// describes the design.

// arrival is one packet leaving a virtual flow's folded access chain:
// at is its instant at the jitter element, flow its global virtual
// flow and entry its index in the flow's class schedule.
type arrival struct {
	at    units.Time
	flow  int32
	entry int32
}

// delivery is one packet whose jittered delivery instant is final: no
// arrival still unprocessed anywhere can deliver at or before it. It is
// the arrival record with at moved to the jittered instant and entry
// the flow's draw index, so both stages share one window sort.
type delivery = arrival

// shardArrivals generates the merged arrival sequence of a subset of
// a mixture's virtual flows, window by window: the serial walk's
// arrivals, read from the same class base sequences, in the same
// (time, flow) order — minus the jitter draw, which happens centrally.
// Arrivals accumulate in out; the shard worker drains lookahead windows
// with advanceTo and hands out chunks to the sequencer.
type shardArrivals struct {
	mix     *BatchedMixture
	flows   []int32    // owned global virtual-flow indices, ascending
	horizon units.Time // arrivals after this never fire serially; 0 = unbounded

	// out collects the arrivals of the current window in (time, flow)
	// order. The worker swaps it out after each window.
	out []arrival

	// produced counts arrivals generated so far — the shard-side work
	// metric ShardStats aggregates.
	produced uint64

	pos     []int32   // next schedule entry per owned flow
	live    []int32   // owned-flow indices not yet exhausted
	scratch []arrival // radix-sort ping-pong buffer
}

// init seeds the per-flow walk state.
func (sa *shardArrivals) init() {
	n := len(sa.flows)
	if n == 0 {
		return
	}
	sa.pos = make([]int32, n)
	sa.live = make([]int32, 0, n)
	m := sa.mix
	for i, g := range sa.flows {
		base := m.base[m.classOf[g]]
		if len(base) == 0 {
			continue
		}
		if first := m.start[g] + base[0]; sa.horizon > 0 && first > sa.horizon {
			continue
		}
		sa.live = append(sa.live, int32(i))
	}
}

// done reports whether every owned flow's schedule has been walked to
// the end (or past the horizon).
func (sa *shardArrivals) done() bool { return len(sa.live) == 0 }

// advanceTo appends to out every arrival strictly before frontier, in
// (time, global flow) order: each live flow contributes a contiguous
// run of its shifted base sequence, and one sort of the window batch
// interleaves the runs. Arrivals past the horizon are never produced:
// the serial run's event loop would never fire them, and per-flow
// arrival times are strictly increasing, so a flow whose next arrival
// passes the horizon is finished.
func (sa *shardArrivals) advanceTo(frontier units.Time) {
	mark := len(sa.out)
	w := 0
	m := sa.mix
	for _, loc := range sa.live {
		flow := sa.flows[loc]
		start, base := m.start[flow], m.base[m.classOf[flow]]
		n := int32(len(base))
		k := sa.pos[loc]
		for k < n {
			at := start + base[k]
			if sa.horizon > 0 && at > sa.horizon {
				k = n
				break
			}
			if at >= frontier {
				break
			}
			sa.out = append(sa.out, arrival{at: at, flow: flow, entry: k})
			k++
		}
		sa.pos[loc] = k
		if k < n {
			sa.live[w] = loc // in-place compaction; write index trails read
			w++
		}
	}
	sa.live = sa.live[:w]
	sa.produced += uint64(len(sa.out) - mark)
	sa.scratch = sortWindow(sa.out[mark:], sa.scratch)
}

// sortWindow orders one window batch of either stage by
// (time, flow, entry). The hot path is a stable LSD radix sort on the
// packed key (at − min(at)) << fb | flow, where fb is the bit width of
// the batch's largest flow index — sized per batch so six-figure flow
// counts radix-sort just like small ones, and small ones pay no extra
// passes for headroom they don't use. Arrivals are unique per
// (time, flow); for deliveries stability supplies the draw-index
// tie-break for free, because draws of one flow enter the buffer in
// draw order and the partition in release preserves it. One window
// spans at most the lookahead width, so the key fits a few bytes and
// the sort is a handful of counting passes over contiguous records
// instead of m·log m branchy comparisons. Returns the scratch buffer
// for reuse; it grows geometrically, so a ramp of ever-longer windows
// re-makes it a few times rather than once per new high water.
func sortWindow(batch []arrival, scratch []arrival) []arrival {
	if len(batch) < radixMinLen {
		slices.SortFunc(batch, compareArrivals)
		return scratch
	}
	minAt, maxAt := batch[0].at, batch[0].at
	var maxFlow int32
	for i := range batch {
		a := &batch[i]
		if a.at < minAt {
			minAt = a.at
		}
		if a.at > maxAt {
			maxAt = a.at
		}
		if a.flow > maxFlow {
			maxFlow = a.flow
		}
	}
	fb := bits.Len32(uint32(maxFlow))
	if uint64(maxAt-minAt) >= 1<<(64-fb) {
		slices.SortFunc(batch, compareArrivals)
		return scratch
	}
	scratch = slices.Grow(scratch[:0], len(batch))[:len(batch)]
	maxKey := uint64(maxAt-minAt)<<fb | (1<<fb - 1)
	src, dst := batch, scratch
	for shift := 0; maxKey>>shift != 0; shift += 8 {
		var count [256]int
		for i := range src {
			k := uint64(src[i].at-minAt)<<fb | uint64(src[i].flow)
			count[(k>>shift)&0xff]++
		}
		pos := 0
		for b := range count {
			pos, count[b] = pos+count[b], pos
		}
		for i := range src {
			k := uint64(src[i].at-minAt)<<fb | uint64(src[i].flow)
			b := (k >> shift) & 0xff
			dst[count[b]] = src[i]
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &batch[0] {
		copy(batch, src)
	}
	return scratch
}

// radixMinLen is the batch size below which the comparator sort's
// lower constant wins over the radix passes.
const radixMinLen = 64

func compareArrivals(a, b arrival) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.flow != b.flow {
		return int(a.flow) - int(b.flow)
	}
	return int(a.entry) - int(b.entry)
}

// jitterSequencer is the serialization point of a sharded run. It
// consumes the shards' arrival chunks window by window, merges them
// into exact global (time, flow) order, takes each arrival's jitter
// through the mixture's draw in that order — the identical root-RNG
// stream positions and per-flow clamp state the serial walk uses — and
// releases a delivery once the frontier proves nothing can precede it:
// every arrival still unprocessed is at or after the frontier, and
// jitter and clamping only move times later, so any pending delivery
// strictly before the frontier is final. Released deliveries are
// ordered by one sort of the window's finalized batch — the per-flow
// draw index makes the key unique and reproduces the serial per-flow
// FIFO on same-instant deliveries.
type jitterSequencer struct {
	mix     *BatchedMixture
	horizon units.Time // deliveries after this are dropped (the serial horizon)

	buf     []delivery // drawn, not yet final; unsorted
	rel     []delivery // per-window release scratch
	scratch []delivery // radix-sort ping-pong buffer
	pos     []int
}

// feed merges one window's arrival chunks — every arrival strictly
// before frontier, one sorted chunk per shard — draws their jitter in
// global order, and appends to out every delivery that became final.
// It returns the extended out slice; released deliveries are in exact
// (time, flow) order across calls.
func (q *jitterSequencer) feed(chunks [][]arrival, frontier units.Time, out []delivery) []delivery {
	if cap(q.pos) < len(chunks) {
		q.pos = make([]int, len(chunks))
	}
	pos := q.pos[:len(chunks)]
	for i := range pos {
		pos[i] = 0
	}
	for {
		best := -1
		for s := range chunks {
			if pos[s] >= len(chunks[s]) {
				continue
			}
			h := &chunks[s][pos[s]]
			if best < 0 {
				best = s
				continue
			}
			b := &chunks[best][pos[best]]
			if h.at < b.at || (h.at == b.at && h.flow < b.flow) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		a := chunks[best][pos[best]]
		pos[best]++
		t, k := q.mix.draw(a.flow, a.at)
		q.buf = append(q.buf, delivery{at: t, flow: a.flow, entry: k})
	}
	return q.release(frontier, out)
}

// release emits every pending delivery strictly before frontier in
// (time, flow, draw-index) order — the serial walk's sequence up to the
// border ties the package comment describes, since same-instant
// deliveries of one flow leave in FIFO draw order there too. Deliveries past the horizon are consumed but not emitted: the
// serial run's event loop would never fire them. Deliveries at or
// after the frontier are carried; everything drawn later is at or
// after the frontier as well, so ordering holds across calls.
func (q *jitterSequencer) release(frontier units.Time, out []delivery) []delivery {
	if len(q.buf) == 0 {
		return out
	}
	rel := q.rel[:0]
	keep := q.buf[:0]
	for _, d := range q.buf {
		if d.at < frontier {
			rel = append(rel, d)
		} else {
			keep = append(keep, d) // in-place compaction; write index trails read
		}
	}
	q.buf, q.rel = keep, rel
	q.scratch = sortWindow(rel, q.scratch)
	for _, d := range rel {
		if q.horizon <= 0 || d.at <= q.horizon {
			out = append(out, d)
		}
	}
	return out
}

// flush releases every remaining pending delivery (the final frontier
// is past every drawn time).
func (q *jitterSequencer) flush(out []delivery) []delivery {
	const never = units.Time(int64(^uint64(0) >> 1))
	return q.release(never, out)
}

// ShardStats describes a sharded run's pipeline.
type ShardStats struct {
	// Shards is the effective shard-worker count: min(requested,
	// partitionable batched flows), 1 after a serial run.
	Shards int
	// ShardFired counts work done off the border simulator: arrivals
	// walked by the shard workers' direct generators. The border
	// simulator's own count is reported by Sim.Fired() as usual.
	ShardFired uint64
	// Injected counts shard emissions replayed at the border.
	Injected int
	// StallRatio is the fraction of the border goroutine's replay
	// wall-clock spent blocked waiting on shard chunks — near 0 means
	// the border is the bottleneck (healthy pipelining), near 1 means
	// the shards are.
	StallRatio float64
}

// lookaheadScale sizes windows as a multiple of the minimum chain
// latency: wide enough to amortize the per-window channel hand-off and
// heap maintenance, narrow enough that a few windows of buffering keep
// every worker busy.
const lookaheadScale = 64

// Each chunk stream — a shard's arrivals, the sequencer's deliveries —
// keeps at most chunkChanCap+3 buffers alive: chunkChanCap queued, one
// being filled, one blocked in the send and one being drained. Buffers
// are made only when the free list is empty or its head is short, so
// the free list has room for every buffer not in flight and giveBuf
// drops none. By the takeBuf rule each buffer has room for about twice
// the longest window seen so far, so a stream's memory follows its
// peak window, not the ramp that led to it. Four queued windows: two
// saved a further 10 % of the fleet workload's allocation but raised
// the border's stall ratio and the run's CPU time.
const (
	chunkChanCap = 4
	freeChanCap  = chunkChanCap + 2
)

// lookaheadWindow derives the shard window width from the minimum
// latency of an access chain: propagation delay plus the wire time of
// the smallest schedulable packet.
func lookaheadWindow(rate units.BitRate, delay units.Time, minSize int) units.Time {
	l := delay + rate.TxTime(minSize)
	if l <= 0 {
		l = units.Millisecond
	}
	w := l * lookaheadScale
	if w > 100*units.Millisecond {
		w = 100 * units.Millisecond
	}
	return w
}

// minEntrySize scans a schedule for its smallest wire size.
func minEntrySize(sched *Schedule) int {
	min := units.EthernetMTU
	for i := range sched.Entries {
		if s := sched.Entries[i].Size; s < min {
			min = s
		}
	}
	return min
}

// takeBuf recycles a chunk buffer from a free-list channel for a
// window expected to hold about want records: a shard's previous
// chunk, or the arrivals the sequencer is about to draw. A buffer that
// already fits is reused as is. A short one, or none when the list is
// empty, is replaced by a fresh buffer of twice want, so during a ramp
// of widening windows each buffer is re-made once per doubling instead
// of re-grown by append from zero or in small steps.
func takeBuf[T any](free chan []T, want int) []T {
	select {
	case b := <-free:
		if cap(b) >= want {
			return b[:0]
		}
	default:
	}
	return make([]T, 0, 2*want)
}

// giveBuf returns a drained chunk buffer to the free list with its
// capacity, the high water of the windows it carried, for takeBuf to
// reuse. A full list drops it.
func giveBuf[T any](free chan []T, b []T) {
	if b == nil {
		return
	}
	select {
	case free <- b:
	default:
	}
}

// RunSharded executes the mixture on the sharded pipeline and runs its
// simulator, the border, to horizon. The shardeq harness pins the run
// bit-identical to Start followed by a serial run to the same horizon
// on the grids the package comment names; past them the two can
// deliver differently.
func (s *BatchedMixture) RunSharded(shards int, horizon units.Time) ShardStats {
	sas, seq, w := s.stages(shards, horizon)
	return runPipeline(s.Sim, sas, seq, w, horizon, s.inject)
}

// stages readies the mixture for border replay and builds the
// pipeline's stages: one arrival walk per shard, the sequencer and the
// lookahead window. Flows are dealt round-robin so staggered starts
// spread evenly across workers; any ascending per-shard assignment
// preserves the global (time, flow) merge order. The window is the
// narrowest any class requires, so every class's arrivals are final at
// the shared frontier.
func (s *BatchedMixture) stages(shards int, horizon units.Time) ([]*shardArrivals, *jitterSequencer, units.Time) {
	n := s.init()
	if shards > n {
		shards = n
	}
	var w units.Time
	for ci := range s.Classes {
		c := &s.Classes[ci]
		cw := lookaheadWindow(c.Chain.AccessRate, c.Chain.AccessDelay, minEntrySize(c.Sched))
		if w == 0 || cw < w {
			w = cw
		}
	}
	sas := make([]*shardArrivals, shards)
	for i := range sas {
		sa := &shardArrivals{mix: s, horizon: horizon, flows: make([]int32, 0, (n-i+shards-1)/shards)}
		for g := i; g < n; g += shards {
			sa.flows = append(sa.flows, int32(g))
		}
		sa.init()
		sas[i] = sa
	}
	return sas, &jitterSequencer{mix: s, horizon: horizon}, w
}

// runPipeline runs the stages on goroutines: each shard's arrival walk
// advances in lookahead windows w on its own, a sequencer goroutine
// merges and jitters their chunks, and the calling goroutine replays
// the released deliveries through inject on the border simulator in
// the sequencer's (time, flow) order, the serial order up to border
// ties, then runs the border to horizon.
func runPipeline(border *sim.Simulator, sas []*shardArrivals, seq *jitterSequencer,
	w, horizon units.Time, inject func(flow, entry int32)) ShardStats {

	s := len(sas)
	g := runner.NewGroup()
	arrCh := make([]chan []arrival, s)
	arrFree := make([]chan []arrival, s)
	for i := range arrCh {
		arrCh[i] = make(chan []arrival, chunkChanCap)
		arrFree[i] = make(chan []arrival, freeChanCap)
	}
	delCh := make(chan []delivery, chunkChanCap)
	delFree := make(chan []delivery, freeChanCap)

	for i := 0; i < s; i++ {
		i := i
		sa := sas[i]
		g.Go(i, func() {
			defer close(arrCh[i])
			for frontier := w; ; frontier += w {
				sa.advanceTo(frontier)
				chunk := sa.out
				sa.out = takeBuf(arrFree[i], len(chunk))
				select {
				case arrCh[i] <- chunk:
				case <-g.Quit():
					return
				}
				if sa.done() {
					return
				}
			}
		})
	}
	g.Go(s, func() {
		defer close(delCh)
		chunks := make([][]arrival, s)
		emit := func(dels []delivery) bool {
			select {
			case delCh <- dels:
				return true
			case <-g.Quit():
				return false
			}
		}
		live := s
		for frontier := w; live > 0; frontier += w {
			want := 0
			for i := 0; i < s; i++ {
				chunks[i] = nil
				if arrCh[i] == nil {
					continue
				}
				select {
				case c, ok := <-arrCh[i]:
					if !ok {
						arrCh[i] = nil
						live--
						continue
					}
					chunks[i] = c
					want += len(c)
				case <-g.Quit():
					return
				}
			}
			if !emit(seq.feed(chunks, frontier, takeBuf(delFree, want))) {
				return
			}
			for i := 0; i < s; i++ {
				giveBuf(arrFree[i], chunks[i])
			}
		}
		emit(seq.flush(takeBuf(delFree, 0)))
	})

	st := ShardStats{Shards: s}
	var stall time.Duration
	wall := time.Now()
	for {
		t0 := time.Now()
		dels, ok := <-delCh
		stall += time.Since(t0)
		if !ok {
			break
		}
		for _, d := range dels {
			border.RunBefore(d.at)
			border.AdvanceTo(d.at)
			inject(d.flow, d.entry)
		}
		st.Injected += len(dels)
		giveBuf(delFree, dels)
	}
	g.Wait()
	border.SetHorizon(horizon)
	border.Run()

	for _, sa := range sas {
		st.ShardFired += sa.produced
	}
	if el := time.Since(wall); el > 0 {
		st.StallRatio = float64(stall) / float64(el)
	}
	return st
}

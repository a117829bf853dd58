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

// Records are packed words, (at − windowStart) << fb | flow, ordered
// as (time, flow) keys; the package comment gives the layout's bounds.
// A chunk carries one lookahead window [windowStart, windowStart+w).
type (
	// arrival is one packet leaving a virtual flow's folded access
	// chain, at its instant at the jitter element.
	arrival = uint64
	// delivery is one packet whose jittered delivery instant is final:
	// no arrival still unprocessed anywhere can deliver at or before it.
	// It names no schedule entry: a flow's delivery instants are
	// non-decreasing in draw order, so the border's k-th delivery of a
	// flow is its k-th entry, and two same-instant deliveries of one
	// flow may share a word.
	delivery = uint64
)

// maxWindow caps the lookahead window, and so a record's offset field.
const maxWindow = 100 * units.Millisecond

// packing is a run's record layout: the window width every chunk
// covers and the width fb of the flow field below the offset.
type packing struct {
	w  units.Time
	fb uint
}

// newPacking lays out the records of a run of n flows in windows of w.
func newPacking(w units.Time, n int) packing {
	return packing{w: w, fb: uint(bits.Len32(uint32(n - 1)))}
}

func (pk packing) pack(at, start units.Time, flow uint32) uint64 {
	return uint64(at-start)<<pk.fb | uint64(flow)
}

func (pk packing) unpack(r uint64, start units.Time) (units.Time, uint32) {
	return start + units.Time(r>>pk.fb), uint32(r & (1<<pk.fb - 1))
}

// replay injects one released window of deliveries on the border in
// their (time, flow) order: before each one the border fires every
// event strictly before its instant and advances its clock to exactly
// that instant, so packets, taps and downstream elements observe the
// serial timeline.
func (pk packing) replay(border *sim.Simulator, dels []delivery, start units.Time, inject func(flow int32)) {
	for _, d := range dels {
		at, flow := pk.unpack(d, start)
		border.RunBefore(at)
		border.AdvanceTo(at)
		inject(int32(flow))
	}
}

// shardArrivals generates the merged arrival sequence of a subset of
// a mixture's virtual flows, window by window: the serial walk's
// arrivals, read from the same class base sequences, in the same
// (time, flow) order — minus the jitter draw, which happens centrally.
// Arrivals accumulate in out; the shard worker drains lookahead windows
// with advanceTo and hands out chunks to the sequencer.
type shardArrivals struct {
	mix *BatchedMixture
	// The walk owns global virtual flows first, first+stride, …: the
	// owned flow at local index loc is first + loc·stride.
	first, stride int32
	horizon       units.Time // arrivals after this never fire serially; 0 = unbounded
	packing

	// out collects the arrivals of the current window in (time, flow)
	// order. The worker swaps it out after each window.
	out []arrival
	// size is the records a window buffer of this walk is made for:
	// its share of the mixture's records per window (records).
	size int

	// produced counts arrivals generated so far — the shard-side work
	// metric ShardStats aggregates.
	produced uint64

	pos     []int32   // next schedule entry per owned flow
	live    []int32   // local indices of owned flows not yet exhausted
	scratch []arrival // radix-sort ping-pong buffer
}

// init seeds the per-flow walk state and makes the window buffer and
// its sort scratch at size.
func (sa *shardArrivals) init() {
	m := sa.mix
	n := (m.bounds.Flows() - sa.first + sa.stride - 1) / sa.stride
	if n <= 0 {
		return
	}
	sa.out = make([]arrival, 0, sa.size)
	sa.scratch = make([]arrival, 0, sa.size)
	sa.pos = make([]int32, n)
	sa.live = make([]int32, 0, n)
	for i := int32(0); i < n; i++ {
		g := sa.first + i*sa.stride
		ci, start := m.locate(g)
		base := m.base[ci]
		if len(base) == 0 {
			continue
		}
		if first := start + base[0]; sa.horizon > 0 && first > sa.horizon {
			continue
		}
		sa.live = append(sa.live, i)
	}
}

// done reports whether every owned flow's schedule has been walked to
// the end (or past the horizon).
func (sa *shardArrivals) done() bool { return len(sa.live) == 0 }

// advanceTo appends to out every arrival of the window that ends at
// frontier, in (time, global flow) order: each live flow contributes a
// contiguous run of its shifted base sequence, and one sort of the
// window batch interleaves the runs. The walk advances window by
// window, so every arrival it appends lies in [frontier−w, frontier).
// Arrivals past the horizon are never produced: the serial run's event
// loop would never fire them, and per-flow arrival times are strictly
// increasing, so a flow whose next arrival passes the horizon is
// finished.
func (sa *shardArrivals) advanceTo(frontier units.Time) {
	mark := len(sa.out)
	start := frontier - sa.w
	w := 0
	m := sa.mix
	for _, loc := range sa.live {
		flow := sa.first + loc*sa.stride
		ci, first := m.locate(flow)
		base := m.base[ci]
		n := int32(len(base))
		k := sa.pos[loc]
		for k < n {
			at := first + base[k]
			if sa.horizon > 0 && at > sa.horizon {
				k = n
				break
			}
			if at >= frontier {
				break
			}
			sa.out = append(sa.out, sa.pack(at, start, uint32(flow)))
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

// sortWindow orders one window's records ascending, which is (time,
// flow) order, by an LSD radix sort over the words themselves: one
// counting pass per byte up to the highest bit any record sets, over
// contiguous words instead of m·log m branchy comparisons. A window
// spans at most maxWindow and fb is sized to the run's flows, so a few
// passes cover it. Returns the scratch buffer for reuse. Each stage
// makes its scratch at its window buffers' size, so it grows, and then
// geometrically, only in a window that runs over that size.
func sortWindow(batch, scratch []uint64) []uint64 {
	if len(batch) < radixMinLen {
		slices.Sort(batch)
		return scratch
	}
	var set uint64
	for _, r := range batch {
		set |= r
	}
	scratch = slices.Grow(scratch[:0], len(batch))[:len(batch)]
	src, dst := batch, scratch
	for shift := 0; set>>shift != 0; shift += 8 {
		var count [256]int
		for _, r := range src {
			count[r>>shift&0xff]++
		}
		pos := 0
		for b := range count {
			pos, count[b] = pos+count[b], pos
		}
		for _, r := range src {
			b := r >> shift & 0xff
			dst[count[b]] = r
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &batch[0] {
		copy(batch, src)
	}
	return scratch
}

// radixMinLen is the batch size below which the comparison sort's
// lower constant wins over the radix passes.
const radixMinLen = 64

// jitterSequencer is the serialization point of a sharded run. It
// consumes the shards' arrival chunks window by window, merges them
// into exact global (time, flow) order, takes each arrival's jitter
// through the mixture's draw in that order — the identical root-RNG
// stream positions and per-flow clamp state the serial walk uses — and
// releases a delivery once the frontier proves nothing can precede it:
// every arrival still unprocessed is at or after the frontier, and
// jitter and clamping only move times later, so any pending delivery
// strictly before the frontier is final. A window's released
// deliveries are packed straight into its outgoing chunk and sorted
// there; those not yet final wait in pending, in absolute time.
type jitterSequencer struct {
	mix     *BatchedMixture
	horizon units.Time // deliveries after this are dropped (the serial horizon)
	packing

	pending []pendingDelivery // drawn, not yet final; unsorted
	scratch []delivery        // radix-sort ping-pong buffer
	pos     []int
	size    int // the records a delivery buffer is made for: the mixture's records per window
}

// pendingDelivery is a drawn delivery at or past the frontier of the
// window that drew it.
type pendingDelivery struct {
	at   units.Time
	flow uint32
}

// feed closes the window that ends at frontier. It merges the window's
// arrival chunks — one sorted chunk per shard, none once every shard is
// done — draws their jitter in global order, and fills the empty out
// with every delivery that became final, sorted, in [frontier−w,
// frontier). Deliveries past the horizon are drawn but never emitted:
// the serial run's event loop would never fire them. Feeding every
// window in turn releases the serial walk's sequence up to the border
// ties the package comment describes.
func (q *jitterSequencer) feed(chunks [][]arrival, frontier units.Time, out []delivery) []delivery {
	start := frontier - q.w
	keep := q.pending[:0]
	for _, d := range q.pending {
		if d.at < frontier {
			out = append(out, q.pack(d.at, start, d.flow))
		} else {
			keep = append(keep, d) // in-place compaction; write index trails read
		}
	}
	q.pending = keep
	if cap(q.pos) < len(chunks) {
		// A cache line of its own: pos is written per record.
		q.pos = make([]int, len(chunks), max(len(chunks), 8))
	}
	pos := q.pos[:len(chunks)]
	for i := range pos {
		pos[i] = 0
	}
	for {
		best := -1
		for s := range chunks {
			if pos[s] < len(chunks[s]) && (best < 0 || chunks[s][pos[s]] < chunks[best][pos[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		a, flow := q.unpack(chunks[best][pos[best]], start)
		pos[best]++
		t := q.mix.draw(int32(flow), a)
		switch {
		case q.horizon > 0 && t > q.horizon:
		case t < frontier:
			out = append(out, q.pack(t, start, flow))
		default:
			q.pending = append(q.pending, pendingDelivery{at: t, flow: flow})
		}
	}
	q.scratch = sortWindow(out, q.scratch)
	return out
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
// are made only when the free list is empty, so the free list has room
// for every buffer not in flight and giveBuf drops none. One queued
// window: the border is the bottleneck (its stall ratio is ≈ 0.005 on
// the fleet workload), so deeper queues only hold memory. Medians of 8
// alternating runs each of that workload on two cores
// (docs/measurements/pr49.md), whose wall and CPU quartiles span
// ±5 %:
//
//	queued  alloc_mb  mallocs  stall_ratio  wall_s  cpu_s
//	1       3.74      279      0.0042       0.544   0.742
//	2       4.10      283      0.0047       0.533   0.735
//	4       4.82      289      0.0082       0.539   0.751
const (
	chunkChanCap = 1
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
	return min(l*lookaheadScale, maxWindow)
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

// takeBuf recycles a chunk buffer from a free-list channel, or makes
// one for size records when the list is empty. A stream's buffers are
// so made once, at the size its share of the fleet's packet density
// implies (records); a buffer grows past that, by append, only in a
// window that runs over it, and keeps what it grew.
func takeBuf[T any](free chan []T, size int) []T {
	select {
	case b := <-free:
		return b[:0]
	default:
		return make([]T, 0, size)
	}
}

// giveBuf returns a drained chunk buffer to the free list with its
// capacity for takeBuf to reuse. A full list drops it.
func giveBuf[T any](free chan []T, b []T) {
	if b == nil {
		return
	}
	select {
	case free <- b:
	default:
	}
}

// runSharded executes the mixture on the pipeline with min(shards,
// flows) shard walks and runs its simulator, the border, to horizon.
// The shard count moves work, never output (package comment, Sharded
// execution).
func (s *BatchedMixture) runSharded(shards int, horizon units.Time) ShardStats {
	sas, seq := s.stages(shards, horizon, s.lookahead())
	return runPipeline(s.Sim, sas, seq, horizon, s.inject)
}

// lookahead is the pipeline's window: the narrowest any class
// requires, so every class's arrivals are final at the shared frontier.
func (s *BatchedMixture) lookahead() units.Time {
	var w units.Time
	for ci := range s.Classes {
		c := &s.Classes[ci]
		cw := lookaheadWindow(c.Chain.AccessRate, c.Chain.AccessDelay, minEntrySize(c.Sched))
		if w == 0 || cw < w {
			w = cw
		}
	}
	return w
}

// stages readies the mixture for border replay and builds the
// pipeline's stages for windows of w: one arrival walk per shard and
// the sequencer. Flows are dealt round-robin so staggered starts
// spread evenly across workers; any ascending per-shard assignment
// preserves the global (time, flow) merge order.
func (s *BatchedMixture) stages(shards int, horizon, w units.Time) ([]*shardArrivals, *jitterSequencer) {
	n := s.init()
	if shards > n {
		shards = n
	}
	pk := newPacking(w, n)
	recs := s.records(w)
	sas := make([]*shardArrivals, shards)
	for i := range sas {
		sa := &shardArrivals{mix: s, first: int32(i), stride: int32(shards), horizon: horizon, packing: pk,
			size: (recs + shards - 1) / shards}
		sa.init()
		sas[i] = sa
	}
	return sas, &jitterSequencer{mix: s, horizon: horizon, packing: pk, size: recs,
		scratch: make([]delivery, 0, recs)}
}

// runPipeline runs the stages on goroutines: each shard's arrival walk
// advances in the sequencer's lookahead windows on its own, a sequencer
// goroutine merges and jitters their chunks, and the calling goroutine
// replays the released deliveries through inject on the border
// simulator in the sequencer's (time, flow) order, the serial order up
// to border ties, then runs the border to horizon. Every stream carries
// one chunk per window, the k-th covering [k·w, (k+1)·w); the sequencer
// goes on past the last arrivals until its pending tail is released.
func runPipeline(border *sim.Simulator, sas []*shardArrivals, seq *jitterSequencer,
	horizon units.Time, inject func(flow int32)) ShardStats {

	s, pk := len(sas), seq.packing
	w := pk.w
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
				sa.out = takeBuf(arrFree[i], sa.size)
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
		live := s
		for frontier := w; live > 0 || len(seq.pending) > 0; frontier += w {
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
				case <-g.Quit():
					return
				}
			}
			select {
			case delCh <- seq.feed(chunks, frontier, takeBuf(delFree, seq.size)):
			case <-g.Quit():
				return
			}
			for i := 0; i < s; i++ {
				giveBuf(arrFree[i], chunks[i])
			}
		}
	})

	st := ShardStats{Shards: s}
	var stall time.Duration
	wall := time.Now()
	for start := units.Time(0); ; start += w {
		t0 := time.Now()
		dels, ok := <-delCh
		stall += time.Since(t0)
		if !ok {
			break
		}
		pk.replay(border, dels, start, inject)
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

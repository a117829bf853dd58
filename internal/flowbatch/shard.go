package flowbatch

import (
	"math/bits"
	"slices"

	"repro/internal/sim"
	"repro/internal/units"
)

// This file splits the BatchedMixture fan-out into the three stages of
// the sharded execution mode (see internal/topology's sharded runs):
//
//   - ShardArrivals: the RNG-free arrival walk (per-flow access-link
//     serialization) over a subset of the virtual flows, advanced
//     directly in conservative lookahead windows;
//   - JitterSequencer: the single serialization point that merges the
//     shards' arrival streams back into exact global (time, flow)
//     order, draws each packet's jitter from the root RNG at exactly
//     the stream position the serial run would have used, and releases
//     deliveries once the lookahead frontier proves them final;
//   - BatchedMixture.InitReplay/Inject: materialization of each
//     delivery on the border simulator, at the delivery instant, in
//     the exact order the sequencer released them.
//
// The decomposition is exact because the arrival walk of one virtual
// flow depends only on that flow's own serialization state (pure
// integer arithmetic — no RNG, no cross-flow coupling), while every
// RNG draw and every downstream side effect happens on the border in
// serial order. Sharding therefore moves work, not decisions.
//
// The arrival walk goes further than relocating computeArrival: every
// virtual flow of a class plays the same shared schedule through the
// same chain parameters, and the serialization recurrence is
// shift-invariant — max(a+c, b+c) = max(a, b)+c, so a flow started at s
// produces arrival k at exactly s + base[k], where base is the walk of
// a flow started at 0. BaseArrivals computes that base sequence once
// per class; a shard then emits nothing but shifted copies of those
// arrays, with no per-arrival arithmetic and no event queue at all.
//
// Ordering inside a window is established by sorting, not by a merge
// heap. Each stage's keys are unique total orders — at most one
// arrival per (time, flow) because per-flow arrival times strictly
// increase, and deliveries carry a per-flow draw index as the final
// tie-break — so one sort of the window's batch yields the exact global
// sequence. On contiguous 16-byte records with an inlined comparator
// this is several times cheaper than the log-N sift per element that a
// merge heap pays (the heap was the top profile entry at N=512), and
// the lookahead window is purely the batching grain.

// Arrival is one packet of one virtual flow leaving its folded access
// chain: entry Entry of the shared schedule, owned by global virtual
// flow Flow, arriving at the jitter element at At.
type Arrival struct {
	At    units.Time
	Flow  int32
	Entry int32
}

// Delivery is one packet whose jittered delivery instant is final: no
// arrival still unprocessed anywhere can deliver at or before it.
// Deliveries are released in exact global (time, flow) order. It is the
// Arrival record with At moved to the jittered instant and Entry the
// flow's draw index, so both stages share one window sort.
type Delivery = Arrival

// BaseArrivals walks one virtual flow's access-chain serialization
// (BatchedMixture.computeArrival with start 0) over the whole schedule
// and returns the arrival instant of every entry. Per-flow arrival
// times are strictly increasing (serialization time is positive), and
// a flow started at s arrives at s + base[k] — the shift-invariance
// every sharded walk relies on.
func BaseArrivals(sched *Schedule, chain ChainSpec) []units.Time {
	if sched == nil {
		return nil
	}
	base := make([]units.Time, len(sched.Entries))
	var busy units.Time
	for k := range sched.Entries {
		e := &sched.Entries[k]
		tx := e.At
		if busy > tx {
			tx = busy
		}
		busy = tx + chain.AccessRate.TxTime(e.Size)
		base[k] = busy + chain.AccessDelay
	}
	return base
}

// ShardArrivals generates the merged arrival sequence of a subset of
// a BatchedMixture's virtual flows, window by window. It is the
// shard-local half of processArrivals: the same per-flow access-link
// serialization (via the class base sequences), the same (time, flow)
// order — minus the jitter draw, which must happen centrally.
// Arrivals accumulate in Out; the shard worker drains lookahead
// windows with AdvanceTo and hands Out chunks to the sequencer.
type ShardArrivals struct {
	Flows   []int32        // owned global virtual-flow indices, ascending
	Start   []units.Time   // start time per owned flow (parallel to Flows)
	Bases   [][]units.Time // class base sequence (BaseArrivals) per owned flow (parallel to Flows)
	Horizon units.Time     // arrivals after this never fire serially; 0 = unbounded

	// Out collects the arrivals of the current window in (time, flow)
	// order. The worker swaps it out after each window.
	Out []Arrival

	// Produced counts arrivals generated so far — the shard-side work
	// metric ShardStats aggregates.
	Produced uint64

	pos     []int32   // next schedule entry per owned flow
	live    []int32   // owned-flow indices not yet exhausted
	scratch []Arrival // radix-sort ping-pong buffer
}

// Init seeds the per-flow walk state.
func (sa *ShardArrivals) Init() {
	n := len(sa.Flows)
	if n == 0 {
		return
	}
	sa.pos = make([]int32, n)
	sa.live = make([]int32, 0, n)
	for i, base := range sa.Bases {
		if len(base) == 0 {
			continue
		}
		first := sa.Start[i] + base[0]
		if sa.Horizon > 0 && first > sa.Horizon {
			continue
		}
		sa.live = append(sa.live, int32(i))
	}
}

// Done reports whether every owned flow's schedule has been walked to
// the end (or past the horizon).
func (sa *ShardArrivals) Done() bool { return len(sa.live) == 0 }

// AdvanceTo appends to Out every arrival strictly before frontier, in
// (time, global flow) order: each live flow contributes a contiguous
// run of its shifted base sequence, and one sort of the window batch
// interleaves the runs. Arrivals past the horizon are never produced:
// the serial run's event loop would never fire them, and per-flow
// arrival times are strictly increasing, so a flow whose next arrival
// passes the horizon is finished.
func (sa *ShardArrivals) AdvanceTo(frontier units.Time) {
	mark := len(sa.Out)
	w := 0
	for _, loc := range sa.live {
		start, flow := sa.Start[loc], sa.Flows[loc]
		base := sa.Bases[loc]
		n := int32(len(base))
		k := sa.pos[loc]
		for k < n {
			at := start + base[k]
			if sa.Horizon > 0 && at > sa.Horizon {
				k = n
				break
			}
			if at >= frontier {
				break
			}
			sa.Out = append(sa.Out, Arrival{At: at, Flow: flow, Entry: k})
			k++
		}
		sa.pos[loc] = k
		if k < n {
			sa.live[w] = loc // in-place compaction; write index trails read
			w++
		}
	}
	sa.live = sa.live[:w]
	sa.Produced += uint64(len(sa.Out) - mark)
	sa.scratch = sortWindow(sa.Out[mark:], sa.scratch)
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
func sortWindow(batch []Arrival, scratch []Arrival) []Arrival {
	if len(batch) < radixMinLen {
		slices.SortFunc(batch, compareArrivals)
		return scratch
	}
	minAt, maxAt := batch[0].At, batch[0].At
	var maxFlow int32
	for i := range batch {
		a := &batch[i]
		if a.At < minAt {
			minAt = a.At
		}
		if a.At > maxAt {
			maxAt = a.At
		}
		if a.Flow > maxFlow {
			maxFlow = a.Flow
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
			k := uint64(src[i].At-minAt)<<fb | uint64(src[i].Flow)
			count[(k>>shift)&0xff]++
		}
		pos := 0
		for b := range count {
			pos, count[b] = pos+count[b], pos
		}
		for i := range src {
			k := uint64(src[i].At-minAt)<<fb | uint64(src[i].Flow)
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

func compareArrivals(a, b Arrival) int {
	if a.At != b.At {
		if a.At < b.At {
			return -1
		}
		return 1
	}
	if a.Flow != b.Flow {
		return int(a.Flow) - int(b.Flow)
	}
	return int(a.Entry) - int(b.Entry)
}

// JitterSequencer is the serialization point of a sharded batched run.
// It consumes the shards' arrival chunks window by window, merges them
// into exact global (time, flow) order, draws one uniform jitter per
// arrival from the root RNG in that order — the identical stream
// positions the serial BatchedMixture consumes — applies the per-flow
// order-preserving clamp, and releases a delivery once the frontier
// proves nothing can precede it: every arrival still unprocessed is at
// or after the frontier, and jitter and clamping only move times
// later, so any pending delivery strictly before the frontier is
// final. Released deliveries are ordered by one sort of the window's
// finalized batch — the per-flow draw index makes the key unique and
// reproduces the serial per-flow FIFO on same-instant deliveries.
type JitterSequencer struct {
	RNG         *sim.RNG
	JitterMaxOf []units.Time // jitter bound of every global flow across all shards
	Horizon     units.Time   // deliveries after this are dropped (the serial horizon)

	lastDelivery []units.Time
	drawn        []int32
	buf          []Delivery // drawn, not yet final; unsorted
	rel          []Delivery // per-window release scratch
	scratch      []Delivery // radix-sort ping-pong buffer
	pos          []int
}

// Init allocates the per-flow sequencing state.
func (q *JitterSequencer) Init() {
	q.lastDelivery = make([]units.Time, len(q.JitterMaxOf))
	q.drawn = make([]int32, len(q.JitterMaxOf))
}

// Feed merges one window's arrival chunks — every arrival strictly
// before frontier, one sorted chunk per shard — draws their jitter in
// global order, and appends to out every delivery that became final.
// It returns the extended out slice; released deliveries are in exact
// (time, flow) order across calls.
func (q *JitterSequencer) Feed(chunks [][]Arrival, frontier units.Time, out []Delivery) []Delivery {
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
			if h.At < b.At || (h.At == b.At && h.Flow < b.Flow) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		a := chunks[best][pos[best]]
		pos[best]++
		q.draw(a)
	}
	return q.release(frontier, out)
}

// draw consumes one root-RNG position for arrival a and queues its
// delivery — the jitter half of BatchedMixture.processArrivals. The
// per-flow clamp makes delivery times non-decreasing within a flow,
// so the draw index doubles as the flow's release order.
func (q *JitterSequencer) draw(a Arrival) {
	i := a.Flow
	t := a.At
	if jm := q.JitterMaxOf[i]; jm > 0 {
		t = a.At + units.Time(q.RNG.Float64()*float64(jm))
	}
	if t < q.lastDelivery[i] {
		t = q.lastDelivery[i]
	}
	q.lastDelivery[i] = t
	q.buf = append(q.buf, Delivery{At: t, Flow: i, Entry: q.drawn[i]})
	q.drawn[i]++
}

// release emits every pending delivery strictly before frontier in
// (time, flow, draw-index) order — the exact serial sequence, since
// same-instant deliveries of one flow leave in FIFO draw order there
// too. Deliveries past the horizon are consumed but not emitted: the
// serial run's event loop would never fire them. Deliveries at or
// after the frontier are carried; everything drawn later is at or
// after the frontier as well, so ordering holds across calls.
func (q *JitterSequencer) release(frontier units.Time, out []Delivery) []Delivery {
	if len(q.buf) == 0 {
		return out
	}
	rel := q.rel[:0]
	keep := q.buf[:0]
	for _, d := range q.buf {
		if d.At < frontier {
			rel = append(rel, d)
		} else {
			keep = append(keep, d) // in-place compaction; write index trails read
		}
	}
	q.buf, q.rel = keep, rel
	q.scratch = sortWindow(rel, q.scratch)
	for _, d := range rel {
		if q.Horizon <= 0 || d.At <= q.Horizon {
			out = append(out, d)
		}
	}
	return out
}

// Flush releases every remaining pending delivery (the final frontier
// is past every drawn time).
func (q *JitterSequencer) Flush(out []Delivery) []Delivery {
	const never = units.Time(int64(^uint64(0) >> 1))
	return q.release(never, out)
}

package topology

import (
	"time"

	"repro/internal/flowbatch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/units"
)

// Sharded intra-run execution: one big batched run partitioned across
// cores.
//
// The multi-flow topology is a tree of source-side access chains (a
// batched virtual flow, its folded access link, its jitter draw)
// joining at shared border elements (policers, the bottleneck, the
// demux, the clients). Everything upstream of the jitter draw is
// deterministic per-flow arithmetic — no RNG, no cross-flow coupling —
// so the virtual flows' arrival walks advance on shard workers in
// parallel. Everything from the first shared or RNG-consuming step on
// runs serially on the border simulator, replaying the shards'
// emissions in exact global order, so a sharded run is bit-identical
// to the serial one (the shardeq harness in internal/experiment pins
// this).
//
// Only a batched mixture has flows to partition. An unbatched build, or
// the single-stream tandem, given Shards > 1 runs serially and reports
// Stats.Shards == 1: cloning each unbatched server + access link onto a
// shard-private simulator (PR 6's chain-clone mode) was retired in
// PR 12, after serial beat -shards 2 in thirty of thirty alternating
// pairings on nflow, schedcomp and tandem on a 2-core host.
//
// # The lookahead rule
//
// Shards advance in conservative lookahead windows derived from the
// minimum latency of the access chain feeding the border: a packet
// emitted by a source at time t cannot reach the border before
// t + minLatency (propagation delay plus the serialization time of
// the smallest packet), so once every shard has advanced past a
// frontier F, every border arrival before F is known. The topology is
// feed-forward — nothing flows from the border back into a chain — so
// the window width governs pipelining grain and buffering, never
// correctness; it is sized at a multiple of the chain latency
// (lookaheadScale) so each cross-thread hand-off carries a meaningful
// batch.
//
// # Border-merge ordering
//
// Shard emissions carry their exact simulated instants. The border
// drains them in global (time, flow) order, and before applying an
// emission at time t it first fires every border event strictly before
// t (sim.RunBefore) and advances the clock to exactly t
// (sim.AdvanceTo), so policers conform-check, taps stamp, and
// downstream queues evolve against the identical timeline the serial
// run produces. Same-instant ties between an injected packet and a
// native border event are resolved injection-first where a serial run
// resolves them in event-sequence order; the tie set is measure-zero
// (jittered delivery instants against lattice-valued link events) and
// the differential harness pins its absence on the tested grids — the
// same standard flow batching set (see internal/flowbatch).
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
func minEntrySize(sched *flowbatch.Schedule) int {
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

// runFanoutPipeline is the shard-worker / sequencer / border-replay
// pipeline described in internal/flowbatch/shard.go: the initialized
// ShardArrivals advance in lookahead windows w on one goroutine each, a
// sequencer goroutine merges and jitters their chunks, and the calling
// goroutine replays released deliveries through inject on the border
// simulator in exact serial order.
func runFanoutPipeline(border *sim.Simulator, sas []*flowbatch.ShardArrivals,
	seq *flowbatch.JitterSequencer, w, horizon units.Time,
	inject func(flow, entry int32)) ShardStats {

	s := len(sas)
	g := runner.NewGroup()
	arrCh := make([]chan []flowbatch.Arrival, s)
	arrFree := make([]chan []flowbatch.Arrival, s)
	for i := range arrCh {
		arrCh[i] = make(chan []flowbatch.Arrival, chunkChanCap)
		arrFree[i] = make(chan []flowbatch.Arrival, freeChanCap)
	}
	delCh := make(chan []flowbatch.Delivery, chunkChanCap)
	delFree := make(chan []flowbatch.Delivery, freeChanCap)

	for i := 0; i < s; i++ {
		i := i
		sa := sas[i]
		g.Go(i, func() {
			defer close(arrCh[i])
			for frontier := w; ; frontier += w {
				sa.AdvanceTo(frontier)
				chunk := sa.Out
				sa.Out = takeBuf(arrFree[i], len(chunk))
				select {
				case arrCh[i] <- chunk:
				case <-g.Quit():
					return
				}
				if sa.Done() {
					return
				}
			}
		})
	}
	g.Go(s, func() {
		defer close(delCh)
		chunks := make([][]flowbatch.Arrival, s)
		emit := func(dels []flowbatch.Delivery) bool {
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
			if !emit(seq.Feed(chunks, frontier, takeBuf(delFree, want))) {
				return
			}
			for i := 0; i < s; i++ {
				giveBuf(arrFree[i], chunks[i])
			}
		}
		emit(seq.Flush(takeBuf(delFree, 0)))
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
			border.RunBefore(d.At)
			border.AdvanceTo(d.At)
			inject(d.Flow, d.Entry)
		}
		st.Injected += len(dels)
		giveBuf(delFree, dels)
	}
	g.Wait()
	border.SetHorizon(horizon)
	border.Run()

	for _, sa := range sas {
		st.ShardFired += sa.Produced
	}
	if el := time.Since(wall); el > 0 {
		st.StallRatio = float64(stall) / float64(el)
	}
	return st
}

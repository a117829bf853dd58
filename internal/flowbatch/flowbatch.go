// Package flowbatch batches identical paced flows: one representative
// flow's emission schedule, computed once per encoding and cached, fans
// out as N phase-offset virtual flows. Each virtual flow keeps its own
// flow id, its own policer, its own client and its own per-flow
// statistics — downstream elements cannot tell a batched source from N
// real servers — but the source-side work (fragmenting every frame,
// stepping a frame clock, running a private access link and jitter
// element per flow) is paid once instead of N times.
//
// # One source
//
// BatchedMixture is the only batched video source. It streams K
// equivalence classes (MixtureClass: a cached schedule, a folded access
// chain, a phase and a stagger), with global flow indices laid out
// class-major; a homogeneous population is the K = 1 case. One arrival
// wheel and one delivery wheel (flowWheel, a calendar of time buckets
// over flow indices — O(1) amortized where a binary heap pays a
// cache-hostile O(log N) sift; the heap survives in wheel_test.go as
// the differential oracle) interleave the classes in exact global
// (time, flow) order. TruncateSchedule caps a class's schedule to a
// clip prefix for fleet-scale sweeps.
//
// None of the fan-out's structures allocates per bucket or per flow. A
// wheel's buckets and its overflow are intrusive chains over two fixed
// arrays — one head per bucket, one successor link per flow — which is
// sufficient on the precondition that a flow is in a given wheel at
// most once (every caller re-files a flow only by popping it first),
// and singly linked is enough because only the located minimum, whose
// predecessor min() remembers, is ever removed. The drawn-but-undelivered
// jitter times of all flows are FIFOs chained through one shared,
// free-listed slab (timeFIFOs), sized by how many deliveries are
// pending at once rather than by N. A run's allocation count is
// therefore Start's fixed set of arrays plus O(log) slab growth,
// whatever the flow count.
//
// # Exactness
//
// The mixture folds the per-flow access link and campus jitter of the
// multi-flow topology into the source and reproduces them exactly:
//
//   - the access link is emulated by serialization arithmetic
//     (txStart = max(emission, link free)), walked once per class and
//     shifted per flow (see Sharded execution), which is bit-identical
//     to a dedicated link.Link that only this flow crosses;
//   - the jitter element's uniform draw is taken from the simulator's
//     root RNG in global arrival order across all virtual flows of all
//     classes — the same stream positions the N real link.Jitter
//     elements would have consumed — and the order-preserving clamp is
//     applied per flow.
//
// Batching is therefore exact (byte-identical figures, delivered and
// dropped counts) when the batched flows' jitter elements are the only
// consumers of the simulator's root RNG stream during the run (forks
// taken at build time do not matter) and no two same-instant events
// race across virtual flows. The multi-flow topology satisfies both;
// internal/experiment's differential harnesses pin the equivalence at
// N ≤ 8 on the nflow grid, through N = 32 on the wide configuration
// (empirically exact through N = 96) and on two-class mixtures. At
// larger N the phase-offset lattice eventually realizes an exact
// same-instant cross-flow coincidence; the fan-out resolves it in
// deterministic (time, flow) order where a real event queue resolves it
// in scheduling-sequence order, so past that point a batched run is a
// statistically equivalent sample of the same chaotic saturated
// system rather than a bit-equal one. N = 128 is the first wide grid
// point where that divergence is realized under the default seed —
// TestBatchedWideTieDivergence in internal/experiment pins both
// sides of the boundary as a regression witness. Batching is approximate for
// topologies where batched flows share a pre-policer queue with other
// traffic, and unsupported for random (Poisson) sources,
// whose per-flow RNG forks cannot be reproduced by one shared stream.
//
// # Why the delivery timer has two arming rules
//
// Until PR 12 a second source, BatchedPaced, served homogeneous
// populations. Into a bare sink the two sources emitted the identical
// packet sequence, but inside a topology they differed in one decision:
// BatchedPaced armed one simulator timer per packet at the instant its
// jitter was drawn — the scheduling sequence number a real jitter
// element's delivery event takes — while the mixture kept a single
// timer at the delivery wheel's minimum. The paper's token buckets are
// two or three packets deep, so one same-nanosecond reorder against a
// native border event (a link's tx-done, a cross-traffic arrival) flips
// a policer or EF-queue verdict: sending the 320-flow `wide-batched`
// benchmark workload through the single-timer rule delivered 206,454
// packets where its golden pins 206,066. Each golden pins its own
// tie-break — `wide-batched` and every batcheq grid pin per-packet
// arming, `fleet-mix` / `fleet-shards2` pin the single timer — so the
// surviving source keeps both rules behind armPerPacketMax and picks
// one at Start from the flow count alone. A benchmark-archetype PR that
// re-pins the two fleet goldens would let the branch collapse to
// per-packet arming everywhere. Measured when the sources were merged,
// ten alternating benchmark pairs against the parent commit:
// `wide-batched` wall 1.22 → 1.07 s (ahead in 10 of 10, unclaimed),
// mallocs 204,081 → 208,439 (+2.1 %, bound 4 %: the wheels' lazily
// grown buckets), sim.events unchanged at 5,085,299.
//
// # Sharded execution
//
// BatchedMixture.RunSharded partitions one big batched run across
// cores. Both run modes share one arrival arithmetic and one jitter
// draw. Every virtual flow of a class plays the same schedule through
// the same folded access link, and the serialization recurrence is
// shift-invariant — max(a+c, b+c) = max(a, b)+c — so a flow started at
// s arrives with entry k at exactly s + base[k], where base, one array
// per class that init computes, is the walk of a flow started at 0.
// The serial arrival wheel and the shard walks both read arrivals that
// way, and the serial walk and the sequencer both take jitter through
// the mixture's one draw, into the mixture's own per-flow clamp state.
//
// The pipeline has three stages:
//
//   - shard walks (shardArrivals): the virtual flows, dealt round-robin,
//     advance on one goroutine per shard in conservative lookahead
//     windows, emitting shifted copies of their class base sequences —
//     no RNG, no cross-flow coupling, no event queue;
//   - the sequencer (jitterSequencer): the single serialization point,
//     on its own goroutine, merges the shards' chunks back into exact
//     global (time, flow) order, draws each packet's jitter at exactly
//     the root-RNG stream position the serial run would have used, and
//     releases a delivery once the frontier proves it final;
//   - border replay: the calling goroutine materializes each released
//     delivery on the mixture's simulator, the border, at its instant
//     (inject), so policers, taps and everything downstream observe the
//     serial timeline.
//
// Sharding therefore moves work, not decisions — up to the border
// ties described below. The shardeq harness in internal/experiment
// pins a sharded run byte-identical to the serial one on nflow-wide at
// 16 flows (64 without -short) and the figure series identical on
// fleet points of 1,000 and 2,000 flows. Past that nothing pins it, and
// it does not hold everywhere: a 16 k-flow fleet run and the 320-flow
// wide-batched workload at seed 117 deliver differently sharded and
// serial (finding (a) in ROADMAP.md).
//
// Windows are sized from the minimum latency of an access chain: a
// packet emitted at t cannot reach the border before t + minLatency
// (propagation delay plus the wire time of the smallest packet), so
// once every shard has advanced past a frontier F, every border arrival
// before F is known. The topology is feed-forward — nothing flows from
// the border back into a chain — so the window width governs pipelining
// grain and buffering, never correctness; it is a multiple of the chain
// latency (lookaheadScale) so each hand-off carries a meaningful batch.
//
// Ordering inside a window is established by sorting, not by a merge
// heap. Every record that crosses the pipeline is one 64-bit word,
// (at − windowStart) << fb | flow, with fb the bit width of the run's
// largest flow index: a window is at most 100 ms (< 2^27 ns) and flow
// indices fit 32 bits, so every run packs, and the words order as
// (time, flow) keys. Arrivals are unique per key, because per-flow
// arrival times strictly increase, so one radix sort of the window's
// words yields the exact global sequence, several times cheaper than
// the log-N sift per element a merge heap pays (the heap was the top
// profile entry at N = 512). Deliveries need no tie-break past the
// flow: the jitter clamp makes a flow's delivery instants
// non-decreasing in draw order, so two same-instant deliveries of one
// flow may share a word, and the border restores the per-flow FIFO by
// numbering each flow's packets itself — inject plays entry Sent[g]
// next, as the serial walk does.
//
// Before applying a delivery at t the border fires every event strictly
// before t and advances its clock to exactly t. Same-instant ties
// between an injected packet and a native border event resolve
// injection-first where a serial run resolves them in event-sequence
// order. The tie set was taken to be measure-zero (jittered delivery
// instants against lattice-valued link events), the standard batching
// set above; the harness pins its absence on the tested grids, and the
// larger runs named above realize it.
//
// Only a batched mixture has flows to partition. An unbatched build
// given more than one shard runs serially; chain-clone sharding of
// unbatched servers was retired after serial beat it in every one of
// ten alternating pairs on nflow, schedcomp and tandem (CHANGES.md has
// the table).
package flowbatch

import (
	"sync"

	"repro/internal/server"
	"repro/internal/units"
	"repro/internal/video"
)

// Entry is one packet of the representative flow's emission plan.
type Entry struct {
	At        units.Time // emission offset from the flow's start
	Size      int        // bytes on the wire (payload + UDP/IP header)
	FrameSeq  int32
	FragIndex int32
	FragCount int32
}

// Schedule is the complete emission plan of one representative paced
// flow: every fragment server.Paced would send, with the same sizes
// and the same integer pacing arithmetic, precomputed so N virtual
// flows can share it.
type Schedule struct {
	Entries []Entry
	Bytes   int64 // total wire bytes per flow
}

// paceSpread is server.Paced's: the fraction of the frame interval a
// frame's fragments are spread across.
const paceSpread = 0.95

// pacedSchedule computes the emission plan of a server.Paced streaming
// enc: frame i starts at i*FrameInterval, its MTU-payload fragments
// spread across paceSpread of the interval with the exact integer
// arithmetic the server uses.
func pacedSchedule(enc *video.Encoding) *Schedule {
	const msgSize = server.MaxUDPPayload
	interval := video.FrameInterval()
	spread := units.Time(float64(interval) * paceSpread)
	sched := &Schedule{}
	for i := range enc.Frames {
		size := enc.Frames[i].Size
		frags := (size + msgSize - 1) / msgSize
		if frags == 0 {
			frags = 1
		}
		frameAt := units.Time(int64(i)) * interval
		for j := 0; j < frags; j++ {
			payload := msgSize
			if j == frags-1 {
				payload = size - (frags-1)*msgSize
			}
			var at units.Time
			if frags > 1 {
				at = units.Time(int64(spread) * int64(j) / int64(frags))
			}
			wire := payload + server.UDPHeader
			sched.Entries = append(sched.Entries, Entry{
				At: frameAt + at, Size: wire,
				FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(frags),
			})
			sched.Bytes += int64(wire)
		}
	}
	return sched
}

// schedCache memoizes schedules per encoding, the same sharing
// discipline video.CachedCBR applies to encodings: every grid point of
// a sweep reuses one plan.
var schedCache sync.Map // *video.Encoding -> *Schedule

// CachedPacedSchedule returns the shared schedule for enc, computing it
// on first use.
func CachedPacedSchedule(enc *video.Encoding) *Schedule {
	if s, ok := schedCache.Load(enc); ok {
		return s.(*Schedule)
	}
	s := pacedSchedule(enc)
	actual, _ := schedCache.LoadOrStore(enc, s)
	return actual.(*Schedule)
}

// ChainSpec is the deterministic pre-policer path folded into a
// batched source: a dedicated access link (serialization at
// AccessRate plus AccessDelay propagation) followed by an
// order-preserving uniform jitter element bounded by JitterMax. A zero
// AccessRate means an infinitely fast access link; a zero JitterMax
// draws nothing from the RNG, exactly like link.Jitter.
type ChainSpec struct {
	AccessRate  units.BitRate
	AccessDelay units.Time
	JitterMax   units.Time
}

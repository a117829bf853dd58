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
// class-major; a homogeneous population is the K = 1 case. It has two
// run paths, and Run picks one: the pipeline (runSharded) whenever a
// shard count above 1 asks for it or the population is at most
// pipelineMaxFlows (1,024 flows), the serial walk (Start) otherwise.
// Both read one arrival order: a shard walk (shardArrivals) emits each
// lookahead window's arrivals as packed (time, flow) words, and one
// radix sort of the window (sortWindow) interleaves the classes in
// exact global (time, flow) order. The serial walk runs a single shard
// walk over every flow inline, draws the sorted words in order on its
// arrival timer, and keeps the drawn deliveries in one (time, flow)
// min-heap (deliveryHeap) behind one delivery timer. TruncateSchedule
// caps a class's schedule to a clip prefix for fleet-scale sweeps.
//
// Neither run mode allocates per packet or per window. A virtual flow
// keeps 12 B of mixture state, its delivery count Sent and its jitter
// clamp: its class is a search over the class bounds (ClassBounds) and
// its start is the class lattice. Every buffer either mode keeps is
// sized once by one rule (records), twice the mean event density over
// the fan-out's span: the serial walk's window buffer and sort scratch
// at a window of it and its heap at the jitter bound, each pipeline
// stream's chunk buffers and sort scratch at its share of a window (a
// shard's split across the shards, the sequencer's whole). A buffer
// grows past that, by append, only in a window that runs over it, so a
// run's allocation count does not depend on the flow count and the
// pipeline's memory does not follow its ramp.
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
// internal/experiment's equivalence harness pins the equivalence at
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
// # Delivery order
//
// One rule orders what reaches the border, and every batched run of at
// most 1,024 flows, or at any size with more than one shard, follows
// it. Arrivals and deliveries sort by (time, flow), each as one packed
// word. Each flow's FIFO is restored at the border by its delivery
// count (inject plays entry Sent[g] next). A delivery at t is injected
// before any native border event at t (a link's tx-done, a
// cross-traffic arrival): the border fires every event strictly before
// t, advances its clock to exactly t and injects. The paper's token
// buckets are two or three packets deep, so that tie order decides
// policer and EF-queue verdicts; the equivalence harness's batched
// rows show it giving what the unbatched build gives on their grids.
//
// The serial walk is kept only for populations above 1,024 flows run
// with no shard count, because the `fleet-mix` benchmark golden
// (16,000 flows) pins its tie order: its one delivery timer resolves a
// tie with a border event by event sequence, so such a run can
// deliver differently from the pipeline (finding (a) in ROADMAP.md).
// Into a bare sink, with no border events, the two paths emit the
// identical sequence (TestRunPathsEmitIdentically).
//
// # Sharded execution
//
// BatchedMixture.runSharded partitions one big batched run across
// cores. Both run modes share one arrival arithmetic and one jitter
// draw. Every virtual flow of a class plays the same schedule through
// the same folded access link, and the serialization recurrence is
// shift-invariant — max(a+c, b+c) = max(a, b)+c — so a flow started at
// s arrives with entry k at exactly s + base[k], where base, one array
// per class that init computes, is the walk of a flow started at 0.
// Both modes read arrivals that way, through the same shard walk, and
// the serial walk and the sequencer both take jitter through the
// mixture's one draw, into the mixture's own per-flow clamp state.
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
// Sharding therefore moves work, not decisions. The equivalence
// harness in internal/experiment pins shard-count invariance: a
// batched nflow-wide point of 16 flows and a two-class mixture, each at
// seeds 2001, 7 and 117, and a 64-flow nflow-wide point (without
// -short) are byte-identical at 1 to 8 shards. On fleet points of
// 1,000 flows (the pipeline both ways) and 2,000 flows (the serial walk
// against the pipeline) every job's Point matches at 4 shards.
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
// numbering each flow's packets itself (see Delivery order).
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

// pacedSchedule computes the emission plan of a server.Paced streaming
// enc: frame i starts at i*FrameInterval, and its fragments follow
// server.PacedPlan, the server's own plan.
func pacedSchedule(enc *video.Encoding) *Schedule {
	interval := video.FrameInterval()
	sched := &Schedule{}
	for i := range enc.Frames {
		frameAt := units.Time(int64(i)) * interval
		server.PacedPlan(enc.Frames[i].Size, func(j, frags, payload int, at units.Time) {
			wire := payload + server.UDPHeader
			sched.Entries = append(sched.Entries, Entry{
				At: frameAt + at, Size: wire,
				FrameSeq: int32(i), FragIndex: int32(j), FragCount: int32(frags),
			})
			sched.Bytes += int64(wire)
		})
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

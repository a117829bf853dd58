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
//   - the access link is emulated by per-flow serialization state
//     (txStart = max(emission, busyUntil)), which is bit-identical to a
//     dedicated link.Link that only this flow crosses;
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
// shard.go splits the same fan-out into the three stages of the
// sharded pipeline (see internal/topology): per-class base walks shifted
// per flow (ShardArrivals), one JitterSequencer that draws every
// class's jitter in global order, and border replay through
// BatchedMixture.Inject. Only a batched mixture has partitionable
// flows; chain-clone sharding of unbatched servers was retired in
// PR 12 after serial beat it in every one of ten alternating pairs on
// nflow, schedcomp and tandem (CHANGES.md has the table).
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

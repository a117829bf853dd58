package topology

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/flowbatch"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// traceBytes encodes a recorder's capture with packet ids
// canonicalized — absolute ids come from process-global counters, so
// only the relabeled form is comparable across runs.
func traceBytes(t *testing.T, rec *ptrace.Recorder) []byte {
	t.Helper()
	d := rec.Data()
	ptrace.CanonicalizePacketIDs(d)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func shardTestRecorder() *ptrace.Recorder {
	return ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 16, Kinds: ptrace.VerdictKinds()})
}

func multiFlowShardConfig(batch bool, n int) MultiFlowConfig {
	return MultiFlowConfig{
		Seed: 11, Enc: video.CachedCBR(video.Lost(), 1.0e6),
		N: n, TokenRate: 1.2e6, Depth: 3000, Batch: batch,
	}
}

// compareMultiFlow asserts a sharded run left behind the exact
// observable state of the serial reference.
func compareMultiFlow(t *testing.T, label string, ref, got *MultiFlow, refTrace, gotTrace []byte) {
	t.Helper()
	for i := range ref.Clients {
		if ref.Clients[i].Packets != got.Clients[i].Packets ||
			ref.Clients[i].PacketsBytes != got.Clients[i].PacketsBytes {
			t.Errorf("%s: client %d: %d pkts/%d B, want %d pkts/%d B", label, i,
				got.Clients[i].Packets, got.Clients[i].PacketsBytes,
				ref.Clients[i].Packets, ref.Clients[i].PacketsBytes)
		}
	}
	for i := range ref.Policers {
		if ref.Policers[i].Passed != got.Policers[i].Passed ||
			ref.Policers[i].Dropped != got.Policers[i].Dropped {
			t.Errorf("%s: policer %d: %d/%d, want %d/%d", label, i,
				got.Policers[i].Passed, got.Policers[i].Dropped,
				ref.Policers[i].Passed, ref.Policers[i].Dropped)
		}
	}
	if ref.Bottleneck.Sent != got.Bottleneck.Sent ||
		ref.Bottleneck.SentBytes != got.Bottleneck.SentBytes {
		t.Errorf("%s: bottleneck %d pkts/%d B, want %d pkts/%d B", label,
			got.Bottleneck.Sent, got.Bottleneck.SentBytes,
			ref.Bottleneck.Sent, ref.Bottleneck.SentBytes)
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Errorf("%s: canonicalized traces are not byte-identical (%d vs %d bytes)",
			label, len(refTrace), len(gotTrace))
	}
}

func runMultiFlow(t *testing.T, cfg MultiFlowConfig) (*MultiFlow, []byte) {
	t.Helper()
	rec := shardTestRecorder()
	cfg.Trace = rec
	m := BuildMultiFlow(cfg)
	m.Run()
	want := 1 // an unbatched build has no partitionable flows
	if cfg.Batch {
		want = max(min(cfg.Shards, cfg.N), 1)
	}
	if m.Stats.Shards != want {
		t.Errorf("Stats.Shards = %d after Shards=%d run, want %d", m.Stats.Shards, cfg.Shards, want)
	}
	return m, traceBytes(t, rec)
}

// TestShardedBatchedMultiFlowMatchesSerial pins the tentpole contract
// on the batched topology: the three-stage pipeline (shard arrival
// walks → serial jitter sequencer → border replay) is bit-identical to
// the serial run at every shard count.
func TestShardedBatchedMultiFlowMatchesSerial(t *testing.T) {
	t.Parallel()
	ref, refTrace := runMultiFlow(t, multiFlowShardConfig(true, 6))
	if ref.Stats.Shards != 1 {
		t.Fatalf("serial run reported %d shards", ref.Stats.Shards)
	}
	for _, shards := range []int{2, 3, 4} {
		cfg := multiFlowShardConfig(true, 6)
		cfg.Shards = shards
		got, gotTrace := runMultiFlow(t, cfg)
		if got.Stats.Injected == 0 {
			t.Errorf("shards=%d: no injections recorded", shards)
		}
		compareMultiFlow(t, fmt.Sprintf("batched shards=%d", shards), ref, got, refTrace, gotTrace)
	}
}

// TestShardedUnbatchedMultiFlowMatchesSerial pins the capping rule on a
// build with nothing to partition: an unbatched run asked for Shards: 4
// runs serially — one effective worker, nothing injected — and leaves
// the byte-identical state behind.
func TestShardedUnbatchedMultiFlowMatchesSerial(t *testing.T) {
	t.Parallel()
	ref, refTrace := runMultiFlow(t, multiFlowShardConfig(false, 4))
	cfg := multiFlowShardConfig(false, 4)
	cfg.Shards = 4
	got, gotTrace := runMultiFlow(t, cfg)
	if got.Stats.Injected != 0 || got.Stats.ShardFired != 0 {
		t.Errorf("unbatched Shards=4 ran a pipeline: %+v", got.Stats)
	}
	compareMultiFlow(t, "unbatched shards=4", ref, got, refTrace, gotTrace)
	for i := range ref.Servers {
		if ref.Servers[i].Sent != got.Servers[i].Sent ||
			ref.Servers[i].SentBytes != got.Servers[i].SentBytes {
			t.Errorf("server %d sent %d/%d, want %d/%d", i,
				got.Servers[i].Sent, got.Servers[i].SentBytes,
				ref.Servers[i].Sent, ref.Servers[i].SentBytes)
		}
	}
}

// TestShardedStaggeredStartsMatchSerial exercises the batched mode
// with a nonzero stagger (staggered starts are what spread flows
// across round-robin shards unevenly in time) and a wider jitter
// horizon interaction.
func TestShardedStaggeredStartsMatchSerial(t *testing.T) {
	t.Parallel()
	mk := func(shards int) MultiFlowConfig {
		cfg := multiFlowShardConfig(true, 8)
		cfg.Stagger = 53 * units.Millisecond
		cfg.Shards = shards
		return cfg
	}
	ref, refTrace := runMultiFlow(t, mk(0))
	for _, shards := range []int{2, 5, 8} {
		got, gotTrace := runMultiFlow(t, mk(shards))
		compareMultiFlow(t, fmt.Sprintf("staggered shards=%d", shards), ref, got, refTrace, gotTrace)
	}
}

// TestCrossTrafficFlowIDsClearVideoRange is the regression test for the
// fixed 900/901 cross-traffic ids the homogeneous build used to
// hard-code: at N = 901 video flow 899 carries id 900, so AF/BE packets
// landed in two clients' counters. Every build now places its sources
// just past the video range.
func TestCrossTrafficFlowIDsClearVideoRange(t *testing.T) {
	const n = 901
	cfg := multiFlowShardConfig(true, n)
	cfg.AFLoad = 0.1
	m := BuildMultiFlow(cfg)
	for _, name := range []string{"af-cross", "be-cross"} {
		if f := m.Net.Poisson(name).Flow; f >= VideoFlow && f < VideoFlow+n {
			t.Errorf("%s flow id %d falls inside the video range [%d, %d)", name, f, VideoFlow, VideoFlow+n)
		}
	}
}

// rampPipelineAlloc builds a one-class batched, aggregated mixture
// whose n flows start evenly over startWindow and each play play of
// the clip, runs its fan-out pipeline on two shards into a bare border
// simulator, and reports the bytes the pipeline allocated and its
// largest window in deliveries. With startWindow ≤ play every flow is
// live at the plateau, so the peak window is set by n alone and
// startWindow sets only how many windows the ramp takes.
func rampPipelineAlloc(t *testing.T, n int, startWindow, play units.Time) (bytes, mallocs uint64, peak int) {
	t.Helper()
	m := BuildMultiFlow(MultiFlowConfig{
		Seed: 3, Batch: true, Shards: 2, AggregateStats: true,
		Classes: []FlowClass{{
			Enc: video.CachedCBR(video.Lost(), 1.0e6), N: n, TokenRate: 1.3e6,
			Truncate: play, Stagger: startWindow / units.Time(n),
		}},
	})
	sas, seq, w := m.fanoutStages(2, m.horizon)
	border := sim.New(1)
	counts := make([]int, m.horizon/w+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := runFanoutPipeline(border, sas, seq, w, m.horizon, func(flow, entry int32) {
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
	rec := uint64(unsafe.Sizeof(flowbatch.Arrival{}))
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

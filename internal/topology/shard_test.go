package topology

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/units"
	"repro/internal/video"
)

// traceBytes encodes a recorder's capture as a .ptrace file would hold
// it; packet ids are numbered by the run's pool, so equivalent runs
// encode to equal bytes.
func traceBytes(t *testing.T, rec *ptrace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
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
		t.Errorf("%s: traces are not byte-identical (%d vs %d bytes)",
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
// the serial run at every shard count. The sharded runs share one pool
// that nothing resets between them, so the trace bytes also pin that a
// build rewinds the pool it is lent: each run numbers its packets
// from 1, as the serial run on its fresh pool does.
func TestShardedBatchedMultiFlowMatchesSerial(t *testing.T) {
	t.Parallel()
	ref, refTrace := runMultiFlow(t, multiFlowShardConfig(true, 6))
	if ref.Stats.Shards != 1 {
		t.Fatalf("serial run reported %d shards", ref.Stats.Shards)
	}
	pool := packet.NewPool()
	for _, shards := range []int{2, 3, 4} {
		cfg := multiFlowShardConfig(true, 6)
		cfg.Shards, cfg.Pool = shards, pool
		got, gotTrace := runMultiFlow(t, cfg)
		if got.Stats.Injected == 0 {
			t.Errorf("shards=%d: no injections recorded", shards)
		}
		compareMultiFlow(t, fmt.Sprintf("batched shards=%d", shards), ref, got, refTrace, gotTrace)
	}
}

// TestBatchedRunPicksPath pins where a batched build given no shard
// count runs: a population of at most 1,024 flows on the pipeline,
// which injects every emission at the border, and a larger one on the
// serial walk, which injects none.
func TestBatchedRunPicksPath(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1024, 1025} {
		m := BuildMultiFlow(MultiFlowConfig{Seed: 11, Batch: true, AggregateStats: true,
			Classes: []FlowClass{{Enc: video.CachedCBR(video.Lost(), 1.0e6), N: n, TokenRate: 1.2e6,
				Truncate: 100 * units.Millisecond, Stagger: units.Millisecond}}})
		m.Run()
		emitted, injected := m.Mixture.TotalSent(), 0
		if n <= 1024 {
			injected = emitted
		}
		if emitted == 0 || m.Stats.Shards != 1 || m.Stats.Injected != injected {
			t.Errorf("N=%d: %d emitted, stats %+v; want 1 shard worker and %d injected", n, emitted, m.Stats, injected)
		}
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

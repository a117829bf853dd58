package topology

import (
	"slices"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/video"
)

// TestPresetHopTables pins the ordered hop table of every traced
// preset. Hop ids are bytes of every .ptrace, and each declaration
// registers its element's hop where it is declared, so a change in the
// order in which a preset declares its elements, or registers the hops
// of the objects it taps by hand, shows here by name.
func TestPresetHopTables(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	classes := []FlowClass{
		{Name: "gold", Enc: enc, N: 2, TokenRate: 1.3e6},
		{Name: "bronze", Enc: enc, N: 1, TokenRate: 1.1e6},
	}
	qbone := func(conditioner string) []string {
		return []string{"client", "delay", "access", "hop3", "cross3", "hop2", "cross2",
			"hop1", "cross1", "hop0", "cross0", conditioner, "border", "jit", "campus"}
	}
	for _, c := range []struct {
		name  string
		build func(*ptrace.Recorder)
		want  []string
	}{
		{"qbone-policer", func(r *ptrace.Recorder) {
			BuildQBone(QBoneConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Trace: r})
		}, qbone("policer")},
		{"qbone-shaper", func(r *ptrace.Recorder) {
			BuildQBone(QBoneConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Shape: true, Trace: r})
		}, qbone("shaper")},
		{"local-udp", func(r *ptrace.Recorder) {
			BuildLocal(LocalConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Trace: r})
		}, []string{"client", "deliver", "hub2", "r3port", "r2port", "r1port", "policer", "router1", "hub1"}},
		{"local-tcp", func(r *ptrace.Recorder) {
			BuildLocal(LocalConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, UseTCP: true, Trace: r})
		}, []string{"deliver", "hub2", "r3port", "r2port", "r1port", "policer", "router1", "hub1",
			"sender-ack", "ackback", "tcp-sender"}},
		{"af", func(r *ptrace.Recorder) {
			BuildAF(AFConfig{Seed: 1, Enc: enc, CIR: 1.0e6, Trace: r})
		}, []string{"client", "access", "bottleneck", "af-cross", "be-cross", "marker", "af-edge", "jit", "campus"}},
		{"tandem-one-border", func(r *ptrace.Recorder) {
			BuildTandem(TandemConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Trace: r})
		}, []string{"client", "access", "d2hop1", "d2hop1-cross", "d2hop0", "d2hop0-cross", "peering",
			"d1hop1", "d1hop1-cross", "d1hop0", "d1hop0-cross", "border1", "border", "jit", "campus"}},
		{"tandem-two-borders", func(r *ptrace.Recorder) {
			BuildTandem(TandemConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, SecondBorder: true, Trace: r})
		}, []string{"client", "access", "d2hop1", "d2hop1-cross", "d2hop0", "d2hop0-cross", "border2", "interdomain", "peering",
			"d1hop1", "d1hop1-cross", "d1hop0", "d1hop0-cross", "border1", "border", "jit", "campus"}},
		{"multiflow-unbatched", func(r *ptrace.Recorder) {
			BuildMultiFlow(MultiFlowConfig{Seed: 1, Enc: enc, N: 2, TokenRate: 1.3e6, Trace: r})
		}, []string{"client0", "client1", "policer0", "policer1", "sink", "demux", "bottleneck",
			"jit0", "hub0", "jit1", "hub1", "be-cross"}},
		{"multiflow-batched", func(r *ptrace.Recorder) {
			BuildMultiFlow(MultiFlowConfig{Seed: 1, Enc: enc, N: 2, TokenRate: 1.3e6, Batch: true, Trace: r})
		}, []string{"client0", "client1", "policer0", "policer1", "sink", "demux", "bottleneck", "be-cross", "vflows"}},
		{"multiflow-aggregated", func(r *ptrace.Recorder) {
			BuildMultiFlow(MultiFlowConfig{Seed: 1, Classes: classes, Batch: true, AggregateStats: true, AFLoad: 0.1, Trace: r})
		}, []string{"agg-gold", "agg-bronze", "policer0", "policer1", "policer2", "sink", "demux",
			"bottleneck", "af-cross", "be-cross", "vflows"}},
	} {
		rec := ptrace.NewRecorder(ptrace.Config{Capacity: 16})
		c.build(rec)
		if got := rec.Data().Hops; !slices.Equal(got, c.want) {
			t.Errorf("%s: hop table\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

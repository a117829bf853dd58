package topology

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
)

// BottleneckSched selects the scheduling discipline of the shared
// bottleneck in the multi-flow topology.
type BottleneckSched int

// Bottleneck scheduler kinds.
const (
	// PriorityBottleneck serves EF strictly first (the paper's core
	// configuration).
	PriorityBottleneck BottleneckSched = iota
	// DRRBottleneck shares the port by deficit round robin across
	// EF / AF / best-effort classes (quanta 4500/3000/1500).
	DRRBottleneck
	// WFQBottleneck shares the port by weighted fair queueing across
	// EF / AF / best-effort classes (weights 3/2/1).
	WFQBottleneck
)

// String names the scheduler kind.
func (k BottleneckSched) String() string {
	switch k {
	case PriorityBottleneck:
		return "priority"
	case DRRBottleneck:
		return "drr"
	case WFQBottleneck:
		return "wfq"
	default:
		return fmt.Sprintf("BottleneckSched(%d)", int(k))
	}
}

// BottleneckSchedulers lists the kinds the scheduler-comparison
// scenario sweeps.
func BottleneckSchedulers() []BottleneckSched {
	return []BottleneckSched{PriorityBottleneck, DRRBottleneck, WFQBottleneck}
}

func (k BottleneckSched) spec(classLimit int) SchedulerSpec {
	afMatch := queue.MatchDSCP(packet.AF11, packet.AF12, packet.AF13)
	switch k {
	case DRRBottleneck:
		return DRRSched(
			queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Quantum: 4500, Limit: classLimit},
			queue.ClassSpec{Name: "af", Match: afMatch, Quantum: 3000, Limit: classLimit},
			queue.ClassSpec{Name: "be", Quantum: 1500, Limit: classLimit},
		)
	case WFQBottleneck:
		return WFQSched(
			queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Weight: 3, Limit: classLimit},
			queue.ClassSpec{Name: "af", Match: afMatch, Weight: 2, Limit: classLimit},
			queue.ClassSpec{Name: "be", Weight: 1, Limit: classLimit},
		)
	default:
		return EFPriority(classLimit, classLimit)
	}
}

// MultiFlowConfig parameterizes the N-flow scaling topology: N
// identical video streams, each edge-policed into EF, competing with
// AF-marked and best-effort aggregates for one DiffServ bottleneck.
// This is the first topology beyond the paper's single-flow figures —
// built entirely on the declarative Builder.
type MultiFlowConfig struct {
	Seed uint64
	Enc  *video.Encoding // shared by every flow (use the cached encodings)
	N    int             // video flow count; default 2
	Pool *packet.Pool    // packet arena; nil builds a fresh one
	Sim  *sim.Simulator  // simulator lent by the worker, Reset to Seed; nil builds a fresh one
	Recv *client.Scratch // receive storage lent by the worker; nil allocates
	// Trace, when set, records packet-level events from every element
	// (and every per-flow client) into the bounded recorder.
	Trace *ptrace.Recorder

	TokenRate units.BitRate  // per-flow APS profile; default 1.3×enc nominal is the caller's business
	Depth     units.ByteSize // per-flow burst size; default 4500

	BottleneckRate units.BitRate   // default 10 Mbps
	Sched          BottleneckSched // bottleneck discipline; default strict priority

	AFLoad float64 // AF-marked competing load fraction of the bottleneck; default 0
	BELoad float64 // best-effort load fraction; default 0.15

	// Stagger offsets each flow's start so GoP structures do not
	// align; default 331 ms per flow (coprime-ish with the frame
	// interval).
	Stagger units.Time

	// Batch replaces the server.Paced instances and their per-flow
	// access-link + jitter chains with one flowbatch.BatchedMixture
	// that fans each class's shared cached emission schedule out as
	// phase-offset virtual flows. Policers, the bottleneck, the demux
	// and the per-flow clients are declared identically, so a batched
	// build is byte-identical to an unbatched one (the experiment
	// package's differential harness pins this) while paying the
	// source-side cost once instead of N times.
	Batch bool

	// Shards > 1 executes a batched run on the intra-run sharded
	// pipeline (see shard.go): the virtual flows' arrival walks advance
	// on shard workers under conservative lookahead windows and the
	// border replays their emissions in exact serial order, so a
	// sharded run is bit-identical to a serial one at any shard count
	// (the shardeq harness pins this). Effective workers =
	// min(Shards, partitionable batched flows), reported in Stats: an
	// unbatched build has no partitionable flows and runs serially.
	Shards int

	// Classes, when non-empty, replaces the homogeneous N-flow
	// population with a mixture of equivalence classes (see mixture.go):
	// each class fans its own cached emission schedule out as its own
	// phase-offset virtual-flow set, interleaved in exact global
	// (time, flow) order. N, Enc and TokenRate are ignored; flow ids
	// are assigned class-major starting at VideoFlow. Empty means one
	// class of N flows of Enc.
	Classes []FlowClass

	// AggregateStats replaces the O(N) per-flow receivers with one
	// client.Aggregate per class: streaming moments and P² delay
	// sketches instead of frame traces, so receive-side memory and
	// assembly are O(classes). Only valid with Classes. Frame-level
	// evaluation (VQM, decode dependencies) is unavailable in this
	// mode; delivery is measured at packet granularity.
	AggregateStats bool
}

func (c MultiFlowConfig) withDefaults() MultiFlowConfig {
	if c.N == 0 {
		c.N = 2
	}
	if c.Depth == 0 {
		c.Depth = 4500
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 10 * units.Mbps
	}
	if c.BELoad == 0 {
		c.BELoad = 0.15
	}
	if c.Stagger == 0 {
		c.Stagger = 331 * units.Millisecond
	}
	return c
}

// MultiFlow is a built N-flow experiment. Exactly one of Servers
// (unbatched: one paced server per flow) or Mixture (one fan-out source
// covering every flow of every class) is populated.
type MultiFlow struct {
	Sim        *sim.Simulator
	Net        *Network
	Servers    []*server.Paced
	Mixture    *flowbatch.BatchedMixture
	Clients    []*client.UDP
	Policers   []*tokenbucket.Policer
	Bottleneck *link.Link

	// Aggregates holds one class-level delivery accumulator per mixture
	// class when the config asked for AggregateStats (Clients is empty
	// then); ClassNames labels them.
	Aggregates []*client.Aggregate
	ClassNames []string

	// Stats describes the sharded pipeline after Run when Shards > 1
	// (Stats.Shards is 1 after a serial run).
	Stats ShardStats

	shards  int
	starts  []units.Time // per-flow start offsets, class-major
	horizon units.Time
}

// flowID maps flow index to the packet flow id (flow 0 keeps the
// single-flow experiments' VideoFlow id).
func flowID(i int) packet.FlowID { return VideoFlow + packet.FlowID(i) }

// BuildMultiFlow declares the N-flow graph: per flow a paced server →
// campus link → jitter → EF policer → shared bottleneck; the
// bottleneck's scheduler is selectable; a demux router fans flows back
// out to per-flow clients and drops the cross traffic. A homogeneous
// config is one class: its N flows of Enc start Stagger apart, and it
// keeps the 30 s drain tail (plus one stagger step) its goldens pin,
// where a declared mixture drains for 5 s.
func BuildMultiFlow(cfg MultiFlowConfig) *MultiFlow {
	cfg = cfg.withDefaults()
	if len(cfg.Classes) > 0 {
		return buildMixtureMultiFlow(cfg, 0)
	}
	if cfg.AggregateStats {
		panic("topology: AggregateStats requires Classes (aggregation is per equivalence class)")
	}
	cfg.Classes = []FlowClass{{Enc: cfg.Enc, N: cfg.N, TokenRate: cfg.TokenRate}}
	return buildMixtureMultiFlow(cfg, units.FromSeconds(cfg.Enc.Clip.DurationSeconds()+30)+
		units.Time(int64(cfg.N))*cfg.Stagger)
}

// Per-flow access chain parameters, shared by the unbatched element
// declarations and the batched fold so the two builds stay
// byte-identical.
const (
	accessRate      = 100 * units.Mbps
	accessDelay     = 500 * units.Microsecond
	accessJitterMax = 3 * units.Millisecond
)

// Run starts every flow (staggered) and executes the simulation to
// completion — on the fan-out pipeline when the config asked for
// Shards > 1 and the build has a batched mixture to partition,
// serially otherwise.
func (m *MultiFlow) Run() {
	if m.shards > 1 && m.Mixture != nil {
		m.Stats = m.runShardedMixture(m.shards, m.horizon)
	} else {
		if m.Mixture != nil {
			m.Mixture.Start()
		}
		for i, srv := range m.Servers {
			srv.StartAt(m.starts[i])
		}
		m.Sim.SetHorizon(m.horizon)
		m.Sim.Run()
		m.Stats = ShardStats{Shards: 1}
	}
	for _, cl := range m.Clients {
		cl.Finish()
	}
}

// AggregatePolicerLoss reports packet loss across all per-flow
// policers.
func (m *MultiFlow) AggregatePolicerLoss() float64 {
	var passed, dropped int
	for _, p := range m.Policers {
		passed += p.Passed
		dropped += p.Dropped
	}
	if passed+dropped == 0 {
		return 0
	}
	return float64(dropped) / float64(passed+dropped)
}

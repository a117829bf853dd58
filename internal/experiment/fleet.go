package experiment

import (
	"fmt"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The fleet scenario: the first sweep to reach six-figure virtual-flow
// counts. Where nflow-wide scales one homogeneous population, the
// fleet is a mixture of equivalence classes — a large population of
// ordinary viewers plus a smaller population of higher-rate elephants
// — run on the batched mixture fan-out with aggregated per-class
// statistics, so both simulation time and memory stay sublinear in N:
// each class pays its source-side cost once, the receive side is O(K)
// accumulators, and past the provisioning knee the bottleneck
// transmits at most a pipe's worth no matter how many flows feed it.

func init() {
	Register(nflowFleetSpec())
}

// FleetClass parameterizes one equivalence class of the fleet: its
// content, encoding rate, share of the total population, and per-flow
// EF policing rate.
type FleetClass struct {
	Name      string
	Clip      *video.Clip
	EncRate   units.BitRate
	Share     float64 // fraction of the point's total flow count
	TokenRate units.BitRate
}

// FleetSpec sweeps the total virtual-flow count of a fixed-shape
// class mixture across the bottleneck's provisioning knee.
type FleetSpec struct {
	Key   string
	ID    string
	Title string

	Ns      []int // total virtual flows per point (split by class shares)
	Classes []FleetClass

	Depth          units.ByteSize
	BottleneckRate units.BitRate
	Sched          topology.BottleneckSched
	BELoad         float64
	Seed           uint64

	// Truncate caps each flow's emission schedule (the fleet streams a
	// clip prefix, not the whole clip — wall-clock scales with N, not
	// with N × clip length).
	Truncate units.Time
	// StartWindow spreads each class's flow starts uniformly over this
	// window (per-flow stagger = window / class population), so the
	// active-flow count — and with it the EF aggregate the bottleneck
	// sees — is independent of the per-flow stagger choice.
	StartWindow units.Time
}

// nflowFleetSpec is the registered fleet scenario: 85% "viewers"
// (Lost @ 1.0 Mbps, policed at 1.3 Mbps) + 15% "elephants" (Dark @
// 1.5 Mbps, policed at 1.95 Mbps), N ∈ {10k … 200k} total flows, each
// streaming a 1 s clip prefix with starts spread over 4 s. With ~N/4
// flows active at once at ~1.1 Mbps mean policed rate, the 13 Gbps
// bottleneck is healthy at 10k, at its knee near 50k, and 2×/4×
// overloaded at 100k/200k — so the sweep records events per virtual
// flow falling past the knee (dropped packets cost no dequeue events)
// while bytes per virtual flow stay ~flat (O(K) receivers, O(1)
// per-flow source state).
func nflowFleetSpec() FleetSpec {
	return FleetSpec{
		Key: "nflow-fleet", ID: "Scaling A3",
		Title: "Six-figure mixed fleets: batched viewer+elephant classes, aggregated stats",
		Ns:    []int{10000, 25000, 50000, 100000, 200000},
		Classes: []FleetClass{
			{Name: "viewers", Clip: video.Lost(), EncRate: 1.0e6, Share: 0.85, TokenRate: 1.3e6},
			{Name: "elephants", Clip: video.Dark(), EncRate: 1.5e6, Share: 0.15, TokenRate: 1.95e6},
		},
		Depth:          4500,
		BottleneckRate: 13e9, Sched: topology.PriorityBottleneck,
		// Under strict priority the best-effort aggregate never touches
		// EF delivery; a light load keeps the scenario honest without
		// dominating the event budget at 13 Gbps.
		BELoad: 0.02, Seed: DefaultSeed,
		Truncate:    units.Second,
		StartWindow: 4 * units.Second,
	}
}

// Name implements Scenario.
func (spec FleetSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec FleetSpec) Describe() string { return spec.Title }

// SplitFlows splits a total of n flows by the class shares, in class
// order: each class takes its share of n rounded to nearest, capped at
// what the classes before it left, and the last class takes the rest.
// A small n can leave a class with none, which a mixture cannot build,
// so scenario-file validation rejects such an n through this same split.
func SplitFlows(n int, classes []FleetClass) []int {
	counts := make([]int, len(classes))
	rem := n
	for ci, fc := range classes {
		cn := int(float64(n)*fc.Share + 0.5)
		if ci == len(classes)-1 || cn > rem {
			cn = rem
		}
		rem -= cn
		counts[ci] = cn
	}
	return counts
}

// classesFor splits a total flow count by the class shares and lays out
// the per-class topology config.
func (spec FleetSpec) classesFor(n int) []topology.FlowClass {
	out := make([]topology.FlowClass, len(spec.Classes))
	counts := SplitFlows(n, spec.Classes)
	for ci, fc := range spec.Classes {
		cn := counts[ci]
		stagger := units.Time(1)
		if cn > 0 {
			if stagger = spec.StartWindow / units.Time(cn); stagger <= 0 {
				stagger = 1
			}
		}
		out[ci] = topology.FlowClass{
			Name: fc.Name, Enc: video.CachedCBR(fc.Clip, fc.EncRate),
			N: cn, TokenRate: fc.TokenRate, Depth: spec.Depth,
			Truncate: spec.Truncate,
			Phase:    units.Time(ci) * units.Millisecond,
			Stagger:  stagger,
		}
	}
	return out
}

// Jobs enumerates one mixture simulation per total flow count. The
// calendar width is the simulator's own: it converges on the observed
// event spacing at every N.
func (spec FleetSpec) Jobs() []Job {
	var jobs []Job
	for _, n := range spec.Ns {
		n := n
		jobs = append(jobs, func(ctx *Ctx) Point {
			return evaluateFleet(ctx, topology.MultiFlowConfig{
				Seed: spec.Seed, Classes: spec.classesFor(n),
				Depth:          spec.Depth,
				BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
				BELoad: spec.BELoad, Pool: ctx.Pool,
				Batch: true, AggregateStats: true,
			}, fmt.Sprintf("N=%d", n), fmt.Sprintf("N%d", n))
		})
	}
	return jobs
}

// evaluateFleet runs one aggregated-stats mixture simulation and folds
// the per-class accumulators into a Point. The embedded FrameLoss is a
// packet-level proxy — 1 − delivered/scheduled across every class —
// because aggregated mode trades frame semantics for O(K) memory;
// Quality stays 0.
func evaluateFleet(ctx *Ctx, cfg topology.MultiFlowConfig, label, traceLabel string) Point {
	rec := ctx.NewRecorder()
	cfg.Trace = rec
	cfg.Shards = ctx.Shards
	cfg.Sim = ctx.Sim
	start := time.Now()
	m := topology.BuildMultiFlow(cfg)
	m.Run()
	ctx.Finish(traceLabel, rec, m.Sim, m.Stats, m.Mixture.TotalFlows(), start)
	pt := Point{Label: label}
	var scheduled, delivered int64
	for ci, agg := range m.Aggregates {
		c := &m.Mixture.Classes[ci]
		cs := ClassStat{
			Name: m.ClassNames[ci], Flows: c.N,
			ScheduledPackets: int64(c.N) * int64(len(c.Sched.Entries)),
			ScheduledBytes:   int64(c.N) * c.Sched.Bytes,
			Packets:          agg.Packets, Bytes: agg.Bytes,
			DelayMeanMs: agg.Delay.Mean() * 1e3,
			DelayStdMs:  agg.Delay.Stddev() * 1e3,
			DelayP50Ms:  agg.DelayP50.Value() * 1e3,
			DelayP95Ms:  agg.DelayP95.Value() * 1e3,
			DelayP99Ms:  agg.DelayP99.Value() * 1e3,
		}
		scheduled += cs.ScheduledPackets
		delivered += cs.Packets
		pt.Classes = append(pt.Classes, cs)
	}
	if scheduled > 0 {
		pt.FrameLoss = 1 - float64(delivered)/float64(scheduled)
	}
	pt.PacketLoss = m.AggregatePolicerLoss()
	return pt
}

// Assemble implements Scenario: one row per total flow count. The
// Loss column is the packet-level delivery shortfall.
func (spec FleetSpec) Assemble(results []Point) *Figure {
	fig := &Figure{ID: spec.ID, Title: spec.Title, XLabel: "Flows"}
	fig.Series = append(fig.Series, Series{Label: "fleet", Points: results})
	return fig
}

// Scaled implements Scalable: thin the flow-count sweep (endpoints
// always kept).
func (spec FleetSpec) Scaled(n int) Scenario {
	spec.Ns = Scale(spec.Ns, n)
	return spec
}

// shardable implements shardCapable: fleet points dispatch to the
// sharded mixture pipeline.
func (FleetSpec) shardable() {}

package experiment

import (
	"fmt"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// This file holds the first scenarios beyond the paper's single-flow
// figures, built on the declarative topology builder: an N-flow
// scaling sweep and a bottleneck-scheduler comparison. Both register
// in the scenario registry, so dsbench runs them on the parallel
// runner exactly like the paper figures.

func init() {
	Register(NFlowSweepSpec())
	Register(NFlowWideSpec())
	Register(SchedCompareSpecDefault())
}

// evaluateMultiFlow runs one multi-flow simulation and folds the
// per-flow traces into a Point: the embedded Evaluation is the
// across-flow mean, Flows keeps each flow's own scores. When the ctx
// requests tracing, the run's packet trace is saved under the label.
func evaluateMultiFlow(ctx *Ctx, cfg topology.MultiFlowConfig, enc *video.Encoding, label, traceLabel string, tok units.BitRate, depth units.ByteSize) Point {
	rec := ctx.NewRecorder()
	cfg.Trace = rec
	cfg.Shards = ctx.Shards
	cfg.Sim, cfg.Recv = ctx.Sim, ctx.Recv
	m := topology.BuildMultiFlow(cfg)
	m.Run()
	ctx.Finish(traceLabel, rec, m.Sim, m.Stats, len(m.Clients), time.Time{})
	pt := Point{TokenRate: tok, Depth: depth, Label: label}
	for _, cl := range m.Clients {
		ev := ctx.Eval.Evaluate(cl.Trace(), enc, enc)
		pt.Flows = append(pt.Flows, ev)
		pt.FrameLoss += ev.FrameLoss
		pt.Quality += ev.Quality
		pt.Calibration += ev.Calibration
	}
	n := float64(len(pt.Flows))
	pt.FrameLoss /= n
	pt.Quality /= n
	pt.PacketLoss = m.AggregatePolicerLoss()
	return pt
}

// worstFlow picks the flow with the worst (highest) quality index.
func worstFlow(p Point) Evaluation {
	worst := p.Evaluation
	for i, ev := range p.Flows {
		if i == 0 || ev.Quality > worst.Quality {
			worst = ev
		}
	}
	return worst
}

// MultiFlowSpec sweeps the number of concurrent video flows competing
// through one DiffServ bottleneck — the scenario family the paper's
// fixed single-flow testbeds could not express.
type MultiFlowSpec struct {
	Key   string
	ID    string
	Title string
	Clip  *video.Clip

	EncRate        units.BitRate
	Ns             []int // flow counts to sweep
	TokenRate      units.BitRate
	Depth          units.ByteSize
	BottleneckRate units.BitRate
	Sched          topology.BottleneckSched
	BELoad         float64
	Seed           uint64

	// Batch runs every point on the flow-batched fan-out source (one
	// simulated flow covering N virtual flows) instead of N paced
	// servers. Batched and unbatched points are byte-identical — the
	// differential harness in batcheq_test.go pins this — but batched
	// points pay the source-side cost once, which is what lets the
	// wide sweep reach hundreds of flows.
	Batch bool
	// Stagger replaces the per-flow start offset (0 keeps the
	// topology default of 331 ms).
	Stagger units.Time
}

// NFlowSweepSpec is the registered N-flow scenario: 1 Mbps Lost
// streams, each policed into EF at 1.3 Mbps, sharing a 6 Mbps strictly
// prioritized bottleneck — the sweep crosses the point where the EF
// aggregate overruns the link. The grid was re-tuned for the pooled
// post-PR3 core (~3.4× faster end to end): twice the N points of the
// original sweep, extending well past the overrun knee, for the same
// wall-clock budget the old grid cost on the slower engine.
func NFlowSweepSpec() MultiFlowSpec {
	return MultiFlowSpec{
		Key: "nflow", ID: "Scaling A",
		Title: "N Lost @ 1.0M flows through one 6 Mbps EF bottleneck",
		Clip:  video.Lost(), EncRate: 1.0e6,
		Ns:        []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16},
		TokenRate: 1.3e6, Depth: 4500,
		BottleneckRate: 6e6, Sched: topology.PriorityBottleneck,
		BELoad: 0.15, Seed: DefaultSeed,
	}
}

// Name implements Scenario.
func (spec MultiFlowSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec MultiFlowSpec) Describe() string { return spec.Title }

// Jobs enumerates one simulation per flow count.
func (spec MultiFlowSpec) Jobs() []Job {
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	var jobs []Job
	for _, n := range spec.Ns {
		n := n
		jobs = append(jobs, func(ctx *Ctx) Point {
			return evaluateMultiFlow(ctx, topology.MultiFlowConfig{
				Seed: spec.Seed, Enc: enc, N: n,
				TokenRate: spec.TokenRate, Depth: spec.Depth,
				BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
				BELoad: spec.BELoad, Pool: ctx.Pool,
				Batch: spec.Batch, Stagger: spec.Stagger,
			}, enc, fmt.Sprintf("N=%d", n), fmt.Sprintf("N%d", n), spec.TokenRate, spec.Depth)
		})
	}
	return jobs
}

// Assemble implements Scenario: a mean-across-flows series and a
// worst-flow series, one row per N.
func (spec MultiFlowSpec) Assemble(results []Point) *Figure {
	fig := &Figure{ID: spec.ID, Title: spec.Title, XLabel: "Flows"}
	mean := Series{Label: "mean"}
	worst := Series{Label: "worst"}
	for _, p := range results {
		mean.Points = append(mean.Points, p)
		wp := p
		wp.Evaluation = worstFlow(p)
		wp.Flows = nil
		worst.Points = append(worst.Points, wp)
	}
	fig.Series = append(fig.Series, mean, worst)
	return fig
}

// Scaled implements Scalable: keep every n-th flow count (endpoints
// always).
func (spec MultiFlowSpec) Scaled(n int) Scenario {
	spec.Ns = Scale(spec.Ns, n)
	return spec
}

// SupportsShards implements ShardCapable: batched points run on the
// fan-out pipeline, unbatched ones report one effective worker.
func (spec MultiFlowSpec) SupportsShards() bool { return true }

// NFlowWideSpec is the wide-aggregate N-flow scenario the paper's
// fixed testbeds (and the unbatched simulator) could not reach: the
// nflow configuration re-tuned for the batched fan-out source, N ∈
// {16, 64, 128, 256, 512} virtual flows into one 24 Mbps EF
// bottleneck — a pipe provisioned for roughly 20 policed flows, so
// the grid crosses the aggregate-overrun knee (N=16 healthy, N=64
// ~3x overrun, N=512 annihilation) instead of starting past it. The
// stagger is tightened from 331 ms to 53 ms (still coprime-ish with
// the 33.4 ms frame interval) so large sweeps actually overlap
// hundreds of concurrent flows instead of streaming past each other.
// Every point runs on one batched source, so wall time and
// simulator events grow sublinearly in N (past the knee the
// bottleneck transmits at most a pipe's worth no matter how many
// flows feed it, and queue drops cost no events) — the
// BENCH_PR5.json trajectory records events per virtual flow falling
// as N grows.
func NFlowWideSpec() MultiFlowSpec {
	return MultiFlowSpec{
		Key: "nflow-wide", ID: "Scaling A2",
		Title: "Wide EF aggregates: N batched Lost @ 1.0M flows, one 24 Mbps bottleneck",
		Clip:  video.Lost(), EncRate: 1.0e6,
		Ns:        []int{16, 64, 128, 256, 512},
		TokenRate: 1.3e6, Depth: 4500,
		BottleneckRate: 24e6, Sched: topology.PriorityBottleneck,
		BELoad: 0.15, Seed: DefaultSeed,
		Batch: true, Stagger: 53 * units.Millisecond,
	}
}

// SchedCompareSpec compares bottleneck scheduling disciplines —
// strict priority vs DRR vs WFQ — at a fixed video load while the
// competing AF and best-effort aggregates sweep from light to
// overload. Priority protects EF unconditionally; DRR and WFQ cap the
// EF class at its configured share, so the overload rows expose the
// isolation-vs-fairness trade the PHB choice makes.
type SchedCompareSpec struct {
	Key   string
	ID    string
	Title string
	Clip  *video.Clip

	EncRate        units.BitRate
	N              int // concurrent video flows
	TokenRate      units.BitRate
	Depth          units.ByteSize
	BottleneckRate units.BitRate
	Loads          []float64 // total competing load fraction, split AF/BE
	Seed           uint64
}

// SchedCompareSpecDefault is the registered scheduler-comparison
// scenario. The load grid was re-tuned for the pooled post-PR3 core:
// seven load points from light load to 2× overload instead of the
// original three, resolving where each discipline's isolation breaks.
func SchedCompareSpecDefault() SchedCompareSpec {
	return SchedCompareSpec{
		Key: "schedcomp", ID: "Scaling B",
		Title: "Bottleneck schedulers under rising cross load (3× Lost @ 1.0M, 6 Mbps)",
		Clip:  video.Lost(), EncRate: 1.0e6,
		N:         3,
		TokenRate: 1.3e6, Depth: 4500,
		BottleneckRate: 6e6,
		Loads:          []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0},
		Seed:           DefaultSeed,
	}
}

// Name implements Scenario.
func (spec SchedCompareSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec SchedCompareSpec) Describe() string { return spec.Title }

// Jobs enumerates one simulation per (scheduler, load) grid point, in
// scheduler-major order.
func (spec SchedCompareSpec) Jobs() []Job {
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	var jobs []Job
	for _, sched := range topology.BottleneckSchedulers() {
		for _, load := range spec.Loads {
			sched, load := sched, load
			jobs = append(jobs, func(ctx *Ctx) Point {
				return evaluateMultiFlow(ctx, topology.MultiFlowConfig{
					Seed: spec.Seed, Enc: enc, N: spec.N,
					TokenRate: spec.TokenRate, Depth: spec.Depth,
					BottleneckRate: spec.BottleneckRate, Sched: sched,
					AFLoad: load / 2, BELoad: load / 2, Pool: ctx.Pool,
				}, enc, fmt.Sprintf("load=%.2f", load),
					fmt.Sprintf("%s-load%.2f", sched, load), spec.TokenRate, spec.Depth)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per scheduler.
func (spec SchedCompareSpec) Assemble(results []Point) *Figure {
	scheds := topology.BottleneckSchedulers()
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title, XLabel: "CrossLoad"},
		len(scheds), len(spec.Loads), results,
		func(i int) string { return scheds[i].String() })
}

// Scaled implements Scalable: thin the load sweep.
func (spec SchedCompareSpec) Scaled(n int) Scenario {
	spec.Loads = Scale(spec.Loads, n)
	return spec
}

// SupportsShards implements ShardCapable.
func (spec SchedCompareSpec) SupportsShards() bool { return true }

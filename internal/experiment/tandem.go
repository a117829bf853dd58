package experiment

import (
	"time"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// This file holds the multi-bottleneck scenario: the same stream
// policed at two tandem domain borders, compared against a
// single-border baseline. It is the first customer of the packet
// tracing subsystem — `dsbench -scenario tandem -trace DIR` dumps one
// bounded trace per point, and `dstrace` shows which border demoted
// or dropped what.

func init() {
	Register(TandemSweepSpec())
}

// TandemSpec sweeps the APS token rate through the two-border tandem
// topology, with a single-border series as the baseline. The gap
// between the series is the cost of EF burst accumulation: traffic
// that conformed at border 1 arrives at border 2 re-clocked by the
// first domain's queues and gets re-dropped against the very same
// profile.
type TandemSpec struct {
	Key   string
	ID    string
	Title string
	Clip  *video.Clip

	EncRate units.BitRate
	Tokens  []units.BitRate
	Depth   units.ByteSize
	Seed    uint64
	Runs    int // seeds averaged per point; 0 means seedRuns
}

// TandemSweepSpec is the registered two-border scenario.
func TandemSweepSpec() TandemSpec {
	return TandemSpec{
		Key: "tandem", ID: "Scaling C",
		Title: "Tandem policed borders: burst accumulation vs one border (Lost @ 1.0M)",
		Clip:  video.Lost(), EncRate: 1.0e6,
		Tokens: TokenSweep(1000, 1600, 100),
		Depth:  3000,
		Seed:   DefaultSeed,
	}
}

// tandemVariants orders the two series: baseline first.
var tandemVariants = []struct {
	label        string
	secondBorder bool
}{
	{"1border", false},
	{"2border", true},
}

// Name implements Scenario.
func (spec TandemSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec TandemSpec) Describe() string { return spec.Title }

// Jobs enumerates one seed-averaged job per (variant, token) grid
// point, variant-major.
func (spec TandemSpec) Jobs() []Job {
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	runs := spec.Runs
	if runs <= 0 {
		runs = seedRuns
	}
	var jobs []Job
	for _, v := range tandemVariants {
		for _, tok := range spec.Tokens {
			v, tok := v, tok
			jobs = append(jobs, func(ctx *Ctx) Point {
				return runTandemPointAvg(ctx, enc, tok, spec.Depth, v.secondBorder,
					v.label, spec.Seed, runs)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per variant.
func (spec TandemSpec) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title},
		len(tandemVariants), len(spec.Tokens), results,
		func(i int) string { return tandemVariants[i].label })
}

// Scaled implements Scalable.
func (spec TandemSpec) Scaled(n int) Scenario {
	spec.Tokens = Scale(spec.Tokens, n)
	return spec
}

// SupportsShards implements ShardCapable: every point reports one
// effective worker (a single unbatched stream).
func (spec TandemSpec) SupportsShards() bool { return true }

// runTandemPointAvg averages runTandemPoint over consecutive seeds
// through the shared averagePoint helper.
func runTandemPointAvg(ctx *Ctx, enc *video.Encoding, tok units.BitRate, depth units.ByteSize, secondBorder bool, variant string, seed uint64, runs int) Point {
	return averagePoint(ctx, tok, depth, seed, runs, func(s uint64) Point {
		return runTandemPoint(ctx, enc, tok, depth, secondBorder, variant, s)
	})
}

// runTandemPoint streams one clip through the tandem topology.
// PacketLoss reports the loss across both borders combined — the
// second border's share is what the baseline series lacks.
func runTandemPoint(ctx *Ctx, enc *video.Encoding, tok units.BitRate, depth units.ByteSize, secondBorder bool, variant string, seed uint64) Point {
	rec := ctx.NewRecorder()
	t := topology.BuildTandem(topology.TandemConfig{
		Seed: seed, Enc: enc, TokenRate: tok, Depth: depth,
		SecondBorder: secondBorder, Pool: ctx.Pool, Sim: ctx.Sim, Recv: ctx.Recv, Trace: rec,
	})
	t.Run()
	// One unbatched stream has no partitionable flows, so the point runs
	// serially at any ctx.Shards and reports one effective worker.
	ctx.Finish(variant+"-"+pointLabel(tok, depth, seed), rec, t.Sim,
		topology.ShardStats{Shards: 1}, 0, time.Time{})
	ev := ctx.Eval.Evaluate(t.Client.Trace(), enc, enc)
	// PacketLoss is the border-drop fraction of everything offered to
	// the policed path: both variants share the denominator
	// (border 1's input), so the series difference is exactly border
	// 2's re-drops. Drops between the borders (hop queues) are not a
	// policer verdict and are excluded here, as in every other
	// scenario's PacketLoss.
	offered := t.Border1.Passed + t.Border1.Dropped
	dropped := t.Border1.Dropped
	if t.Border2 != nil {
		dropped += t.Border2.Dropped
	}
	if offered > 0 {
		ev.PacketLoss = float64(dropped) / float64(offered)
	}
	return Point{TokenRate: tok, Depth: depth, Evaluation: ev}
}

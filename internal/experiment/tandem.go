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
	register(tandemSweepSpec().Grid())
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
	Runs    int // seeds per point; 0 means seedRuns
}

// tandemSweepSpec is the registered two-border scenario.
func tandemSweepSpec() TandemSpec {
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

// Grid is the scenario the spec describes: one point per (variant,
// token), variant-major, at Runs seeds (0 means seedRuns), folded into
// one curve per variant. Every point is a single unbatched stream, so
// it runs serially at any Ctx.Shards and reports one effective worker.
func (spec TandemSpec) Grid() *Grid {
	runs := spec.Runs
	if runs <= 0 {
		runs = seedRuns
	}
	return &Grid{Key: spec.Key, ID: spec.ID, Title: spec.Title,
		Points: len(tandemVariants) * len(spec.Tokens), Params: spec, Seed: spec.Seed, Seeds: runs, Shards: true,
		Run: func(ctx *Ctx, i int, seed uint64) Point {
			v := tandemVariants[i/len(spec.Tokens)]
			return runTandemPoint(ctx, video.CachedCBR(spec.Clip, spec.EncRate), spec.Tokens[i%len(spec.Tokens)],
				spec.Depth, v.secondBorder, v.label, seed)
		},
		Fold: func(rs []Point) []Series { return byRows(rs, tandemVariants[0].label, tandemVariants[1].label) },
		Thin: func(n int) Scenario {
			spec := spec
			spec.Tokens = Scale(spec.Tokens, n)
			return spec.Grid()
		},
	}
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

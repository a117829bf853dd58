// Package experiment is the measurement harness: it runs streaming
// experiments over the simulated testbeds, feeds the resulting frame
// traces through the renderer-concealment and VQM pipeline, and
// regenerates every table and figure of the paper's evaluation
// (Section 4). README.md's "The scenario registry" and `dsbench -list`
// carry the experiment index.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/render"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

// Evaluation is the per-run outcome: the two quantities every figure
// plots against token rate.
type Evaluation struct {
	FrameLoss   float64 // fraction of clip frames never decodable
	Quality     float64 // VQM index: 0 best, 1 worst
	PacketLoss  float64 // network-level packet loss at the policer
	Calibration int     // VQM segments that failed temporal calibration
}

// Evaluator is the offline pipeline's scratch — the decoder's frame
// index and output trace, the displayed sequence, the VQM feature
// vectors — kept from one Evaluate to the next. A runner worker owns
// one through its Ctx, so the flows of a multi-flow point and
// consecutive grid points score on the same buffers. The zero value is
// ready to use; an Evaluation is plain values, so nothing it returns
// aliases the scratch.
type Evaluator struct {
	dec   client.MPEGDecoder
	disp  render.Displayed
	score vqm.Scorer
}

// Evaluate runs the offline pipeline of §3.1 on a frame trace:
// MPEG decode dependencies (for CBR/MPEG content), renderer
// concealment, then VQM scoring of the displayed sequence against ref.
func (e *Evaluator) Evaluate(tr *trace.Trace, recv, ref *video.Encoding) Evaluation {
	if recv.CBR {
		tr = e.dec.Decode(tr, recv)
	}
	d := &e.disp
	render.ConcealInto(d, tr, render.DefaultOptions())
	res := e.score.Score(d, recv, ref, vqm.Options{})
	return Evaluation{
		FrameLoss:   tr.FrameLossFraction(),
		Quality:     res.Index,
		Calibration: res.CalibrationFailures,
	}
}

// Evaluate is the one-shot form of Evaluator.Evaluate.
func Evaluate(tr *trace.Trace, recv, ref *video.Encoding) Evaluation {
	return new(Evaluator).Evaluate(tr, recv, ref)
}

// Point is one sweep sample: the paper's relation from network
// parameters (token rate, bucket depth) to application quality. Label
// optionally replaces the row label for scenarios whose x-axis is not
// a token rate (flow count, cross load); Flows carries per-flow
// evaluations for multi-flow scenarios (the embedded Evaluation is then
// the across-flow mean). What the simulator did to produce the point is
// not here: jobs report that through Ctx.Finish into Figure.Runs.
type Point struct {
	TokenRate units.BitRate
	Depth     units.ByteSize
	Label     string
	Evaluation
	Flows []Evaluation

	// Classes carries per-equivalence-class delivery statistics for
	// mixture points run in aggregated-stats mode (nil otherwise).
	Classes []ClassStat
}

// ClassStat summarizes one equivalence class of an aggregated-stats
// mixture point: packet-level delivery counts and one-way delay
// statistics from the class's streaming accumulator (exact moments,
// P²-sketched quantiles).
type ClassStat struct {
	Name             string
	Flows            int
	ScheduledPackets int64 // per-flow schedule length × class population
	ScheduledBytes   int64
	Packets          int64 // delivered
	Bytes            int64
	DelayMeanMs      float64
	DelayStdMs       float64
	DelayP50Ms       float64
	DelayP95Ms       float64
	DelayP99Ms       float64
}

// rowLabel is what the figure table prints in the first column.
func (p Point) rowLabel() string {
	if p.Label != "" {
		return p.Label
	}
	return p.TokenRate.String()
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string // first-column header; "" means "TokenRate"
	Series []Series

	// Runs is the engine telemetry of the run that produced the figure:
	// Runs[i] is what Jobs()[i] reported through Ctx.Finish, filed by
	// RunScenarioOpts, so each simulation appears once however many
	// series its Point was folded into. Never figure output.
	Runs []RunStats
}

// foldRows is the row-major fold the grid scenarios' Assemble methods
// share: job-ordered results chunked into rows series of cols points.
func foldRows(fig *Figure, rows, cols int, results []Point, label func(row int) string) *Figure {
	for r := 0; r < rows; r++ {
		fig.Series = append(fig.Series, Series{Label: label(r),
			Points: append([]Point(nil), results[r*cols:(r+1)*cols]...)})
	}
	return fig
}

// depthLabel names a per-depth series.
func depthLabel(depths []units.ByteSize) func(int) string {
	return func(i int) string { return fmt.Sprintf("B=%d", int64(depths[i])) }
}

// Format renders the figure as an aligned text table, one row per
// token rate, one (loss, quality) column pair per series.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	x := f.XLabel
	if x == "" {
		x = "TokenRate"
	}
	fmt.Fprintf(&b, "%-12s", x)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %-10s %-10s", "Loss("+s.Label+")", "QI("+s.Label+")")
	}
	b.WriteString("\n")
	if len(f.Series) == 0 || len(f.Series[0].Points) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-12s", f.Series[0].Points[i].rowLabel())
		for _, s := range f.Series {
			if i < len(s.Points) {
				p := s.Points[i]
				fmt.Fprintf(&b, " | %-10.3f %-10.3f", p.FrameLoss, p.Quality)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TokenSweep builds an inclusive token-rate range in kbps steps.
func TokenSweep(fromKbps, toKbps, stepKbps int) []units.BitRate {
	var out []units.BitRate
	for k := fromKbps; k <= toKbps; k += stepKbps {
		out = append(out, units.BitRate(k)*units.Kbps)
	}
	return out
}

// QBoneSpec parameterizes one QBone figure (Figs. 7–12): a clip
// encoded at one CBR rate, streamed for every (token rate, depth)
// combination, scored against its own encoding.
type QBoneSpec struct {
	Key     string // registry name, e.g. "fig7"
	ID      string
	Title   string
	Clip    *video.Clip
	EncRate units.BitRate
	Tokens  []units.BitRate
	Depths  []units.ByteSize
	Seed    uint64
	// Runs averages each point over this many seeds (seed, seed+1, …);
	// 0 means 3. The paper repeated runs for the same reason: jitter
	// makes individual runs noisy (§4 "there is some variability").
	Runs int
	// CrossLoad replaces the default background load (0 keeps it).
	CrossLoad float64
}

// Name implements Scenario.
func (spec QBoneSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec QBoneSpec) Describe() string { return spec.Title }

// Jobs enumerates one seed-averaged job per (depth, token) grid point,
// in the figure's row-major order.
func (spec QBoneSpec) Jobs() []Job {
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	runs := spec.Runs
	if runs <= 0 {
		runs = 3
	}
	var jobs []Job
	for _, depth := range spec.Depths {
		for _, tok := range spec.Tokens {
			depth, tok := depth, tok
			jobs = append(jobs, func(ctx *Ctx) Point {
				return runQBonePointAvgLabeled(ctx, "", enc, enc, tok, depth, spec.Seed, spec.CrossLoad, runs)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per depth, points in token
// order.
func (spec QBoneSpec) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title},
		len(spec.Depths), len(spec.Tokens), results, depthLabel(spec.Depths))
}

// Scaled implements Scalable.
func (spec QBoneSpec) Scaled(n int) Scenario {
	spec.Tokens = Scale(spec.Tokens, n)
	return spec
}

// runQBonePointAvgLabeled averages runQBonePointLabeled over
// consecutive seeds (see averagePoint for the averaging and tracing
// conventions). The trace-file label prefix is for scenarios whose
// grids differ in something other than (token, depth, seed).
func runQBonePointAvgLabeled(ctx *Ctx, labelPrefix string, enc, ref *video.Encoding, tok units.BitRate, depth units.ByteSize, seed uint64, crossLoad float64, runs int) Point {
	return averagePoint(ctx, tok, depth, seed, runs, func(s uint64) Point {
		return runQBonePointLabeled(ctx, labelPrefix, enc, ref, tok, depth, s, crossLoad)
	})
}

// averagePoint averages a single-run point function over consecutive
// seeds; Calibration accumulates by the same convention the serial
// harness used. When the ctx requests tracing, only the first seed's
// run is traced: one representative capture per grid point keeps -trace
// output proportional to the figure, not to the seed averaging. Every
// run reports into the same ctx.Run (see Ctx.Finish for how telemetry
// combines across them).
func averagePoint(ctx *Ctx, tok units.BitRate, depth units.ByteSize, seed uint64, runs int, run func(seed uint64) Point) Point {
	if runs <= 1 {
		return run(seed)
	}
	tr := ctx.Trace
	var acc Point
	for r := 0; r < runs; r++ {
		p := run(seed + uint64(r))
		ctx.Recv.Reset() // p is plain values: the next seed receives on this one's storage
		ctx.Trace = nil  // the remaining seeds run untraced
		acc.FrameLoss += p.FrameLoss
		acc.Quality += p.Quality
		acc.PacketLoss += p.PacketLoss
		acc.Calibration += p.Calibration
	}
	ctx.Trace = tr
	acc.TokenRate, acc.Depth = tok, depth
	acc.FrameLoss /= float64(runs)
	acc.Quality /= float64(runs)
	acc.PacketLoss /= float64(runs)
	return acc
}

// pointLabel names a grid point's trace file.
func pointLabel(tok units.BitRate, depth units.ByteSize, seed uint64) string {
	return fmt.Sprintf("tok%d-B%d-s%d", int64(tok), int64(depth), seed)
}

// runQBonePointLabeled streams enc across the QBone with the given
// profile on ctx — building on ctx.Pool, reporting into ctx.Run — and
// evaluates the received video against ref.
func runQBonePointLabeled(ctx *Ctx, labelPrefix string, enc, ref *video.Encoding, tok units.BitRate, depth units.ByteSize, seed uint64, crossLoad float64) Point {
	rec := ctx.NewRecorder()
	q := topology.BuildQBone(topology.QBoneConfig{
		Seed: seed, Enc: enc, TokenRate: tok, Depth: depth, CrossLoad: crossLoad,
		Pool: ctx.Pool, Recv: ctx.Recv, Trace: rec,
	})
	q.Client.Tolerance = client.SliceTolerance
	q.Run()
	ctx.Finish(labelPrefix+pointLabel(tok, depth, seed), rec, q.Sim, topology.ShardStats{}, 0, time.Time{})
	ev := ctx.Eval.Evaluate(q.Client.Trace(), enc, ref)
	if q.Policer != nil {
		ev.PacketLoss = q.Policer.LossFraction()
	}
	return Point{TokenRate: tok, Depth: depth, Evaluation: ev}
}

// RelativeSpec parameterizes the Figs. 13–14 experiments: three
// encodings of the same clip streamed at each token rate with a fixed
// depth, all scored against the highest-quality (1.7 Mbps) encoding.
type RelativeSpec struct {
	Key      string // registry name, e.g. "fig13"
	ID       string
	Title    string
	Clip     *video.Clip
	EncRates []units.BitRate
	RefRate  units.BitRate
	Tokens   []units.BitRate
	Depth    units.ByteSize
	Seed     uint64
	Runs     int // seeds averaged per point; 0 means 3
}

// Name implements Scenario.
func (spec RelativeSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec RelativeSpec) Describe() string { return spec.Title }

// Jobs enumerates one seed-averaged job per (encoding, token) grid
// point. The cached-encoding layer guarantees the reference-rate
// series streams the very *Encoding it is scored against, as the
// serial code did.
func (spec RelativeSpec) Jobs() []Job {
	ref := video.CachedCBR(spec.Clip, spec.RefRate)
	runs := spec.Runs
	if runs <= 0 {
		runs = 3
	}
	var jobs []Job
	for _, er := range spec.EncRates {
		enc := video.CachedCBR(spec.Clip, er)
		for _, tok := range spec.Tokens {
			enc, tok, er := enc, tok, er
			jobs = append(jobs, func(ctx *Ctx) Point {
				// The encoding rate disambiguates trace files: every
				// series shares the same (token, depth, seed) grid.
				return runQBonePointAvgLabeled(ctx, fmt.Sprintf("enc%d-", int64(er)),
					enc, ref, tok, spec.Depth, spec.Seed, 0, runs)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per encoding rate.
func (spec RelativeSpec) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title},
		len(spec.EncRates), len(spec.Tokens), results,
		func(i int) string { return spec.EncRates[i].String() })
}

// Scaled implements Scalable.
func (spec RelativeSpec) Scaled(n int) Scenario {
	spec.Tokens = Scale(spec.Tokens, n)
	return spec
}

// LocalSpec parameterizes the Figs. 15–16 experiments: the WMV-encoded
// Lost clip streamed over TCP through the local testbed, with or
// without the Linux shaping router ahead of the dropping policer.
type LocalSpec struct {
	Key       string // registry name, e.g. "fig15"
	ID        string
	Title     string
	Clip      *video.Clip
	CapKbps   float64
	Tokens    []units.BitRate
	Depths    []units.ByteSize
	UseShaper bool
	UseTCP    bool
	Seed      uint64
}

// Name implements Scenario.
func (spec LocalSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec LocalSpec) Describe() string { return spec.Title }

// Jobs enumerates one job per (depth, token) grid point.
func (spec LocalSpec) Jobs() []Job {
	enc := video.CachedVBR(spec.Clip, units.BitRate(spec.CapKbps)*units.Kbps)
	var jobs []Job
	for _, depth := range spec.Depths {
		for _, tok := range spec.Tokens {
			depth, tok := depth, tok
			jobs = append(jobs, func(ctx *Ctx) Point {
				return runLocalPoint(ctx, enc, tok, depth, spec.UseShaper, spec.UseTCP, spec.Seed)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per depth.
func (spec LocalSpec) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title},
		len(spec.Depths), len(spec.Tokens), results, depthLabel(spec.Depths))
}

// Scaled implements Scalable.
func (spec LocalSpec) Scaled(n int) Scenario {
	spec.Tokens = Scale(spec.Tokens, n)
	return spec
}

// runLocalPoint streams enc through the local testbed on ctx and
// evaluates it against itself.
func runLocalPoint(ctx *Ctx, enc *video.Encoding, tok units.BitRate, depth units.ByteSize, useShaper, useTCP bool, seed uint64) Point {
	rec := ctx.NewRecorder()
	l := topology.BuildLocal(topology.LocalConfig{
		Seed: seed, Enc: enc, TokenRate: tok, Depth: depth,
		UseTCP: useTCP, UseShaper: useShaper, Pool: ctx.Pool, Recv: ctx.Recv, Trace: rec,
	})
	if l.UDPClient != nil {
		// WMT's reduced message sizes mean one lost packet damages a
		// frame instead of voiding a whole fragmented datagram (§2.2).
		l.UDPClient.Tolerance = client.SliceTolerance
	}
	l.Run()
	ctx.Finish(pointLabel(tok, depth, seed), rec, l.Sim, topology.ShardStats{}, 0, time.Time{})
	ev := ctx.Eval.Evaluate(l.Trace(), enc, enc)
	if l.Policer != nil {
		ev.PacketLoss = l.Policer.LossFraction()
	}
	return Point{TokenRate: tok, Depth: depth, Evaluation: ev}
}

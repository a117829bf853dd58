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
	render.ConcealInto(d, tr)
	res := e.score.Score(d, recv, ref)
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

	// The ablations' own columns: ef-service's one-way EF delay mean,
	// p99 and mean jitter in seconds, and abl-af's srTCM colour counts.
	DelayMean, DelayP99, Jitter float64
	Green, Yellow, Red          int
}

// ClassStat summarizes one equivalence class of an aggregated-stats
// mixture point: packet-level delivery counts and one-way delay
// statistics from the class's streaming accumulator (exact moments,
// P²-sketched quantiles). The tags are its dsbench -json field names.
type ClassStat struct {
	Name             string  `json:"name"`
	Flows            int     `json:"flows"`
	ScheduledPackets int64   `json:"scheduled_packets"` // per-flow schedule length × class population
	ScheduledBytes   int64   `json:"scheduled_bytes"`
	Packets          int64   `json:"packets"` // delivered
	Bytes            int64   `json:"bytes"`
	DelayMeanMs      float64 `json:"delay_mean_ms"`
	DelayStdMs       float64 `json:"delay_std_ms"`
	DelayP50Ms       float64 `json:"delay_p50_ms"`
	DelayP95Ms       float64 `json:"delay_p95_ms"`
	DelayP99Ms       float64 `json:"delay_p99_ms"`
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

	// layout, when set at Assemble, prints the rows under the title line
	// in place of gridTable; a figure with a layout is a table, not a
	// chart (see Plot).
	layout func(b *strings.Builder, f *Figure)
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

// Format renders the figure as an aligned text table under its
// "ID — Title" line (the title alone when ID is empty), in the layout
// set at Assemble or else in gridTable's.
func (f *Figure) Format() string {
	var b strings.Builder
	if f.ID != "" {
		b.WriteString(f.ID + " — ")
	}
	b.WriteString(f.Title + "\n")
	layout := f.layout
	if layout == nil {
		layout = gridTable
	}
	layout(&b, f)
	return b.String()
}

// gridTable is the default layout: one row per token rate (or point
// label), one (loss, quality) column pair per series.
func gridTable(b *strings.Builder, f *Figure) {
	x := f.XLabel
	if x == "" {
		x = "TokenRate"
	}
	fmt.Fprintf(b, "%-12s", x)
	for _, s := range f.Series {
		fmt.Fprintf(b, " | %-10s %-10s", "Loss("+s.Label+")", "QI("+s.Label+")")
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(b, "%-12s", f.Series[0].Points[i].rowLabel())
		for _, s := range f.Series {
			if i < len(s.Points) {
				p := s.Points[i]
				fmt.Fprintf(b, " | %-10.3f %-10.3f", p.FrameLoss, p.Quality)
			}
		}
		b.WriteString("\n")
	}
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
	// 0 means seedRuns.
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
		runs = seedRuns
	}
	var jobs []Job
	for _, depth := range spec.Depths {
		for _, tok := range spec.Tokens {
			depth, tok := depth, tok
			jobs = append(jobs, func(ctx *Ctx) Point {
				return runQBonePointAvgLabeled(ctx, "", topology.QBoneConfig{Seed: spec.Seed, Enc: enc,
					TokenRate: tok, Depth: depth, CrossLoad: spec.CrossLoad}, enc, runs)
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

// seedRuns is how many consecutive seeds a figure point averages unless
// its spec says otherwise. The paper repeated runs for the same reason:
// jitter makes individual runs noisy (§4 "there is some variability").
const seedRuns = 3

// runQBonePointAvgLabeled averages runQBonePointLabeled over
// consecutive seeds from cfg.Seed (see averagePoint for the averaging
// and tracing conventions).
func runQBonePointAvgLabeled(ctx *Ctx, labelPrefix string, cfg topology.QBoneConfig, ref *video.Encoding, runs int) Point {
	return averagePoint(ctx, cfg.TokenRate, cfg.Depth, cfg.Seed, runs, func(s uint64) Point {
		cfg.Seed = s
		p, _ := runQBonePointLabeled(ctx, labelPrefix, cfg, ref)
		return p
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
		ctx.reclaim()   // p is plain values: the next seed runs on this one's storage
		ctx.Trace = nil // the remaining seeds run untraced
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

// runQBonePointLabeled streams cfg.Enc across the QBone configured by
// cfg on ctx — building on ctx.Sim, ctx.Pool and ctx.Recv, reporting
// into ctx.Run — and evaluates the received video against ref. The
// trace-file label prefix is for grids that differ in something other
// than (token, depth, seed). The topology is returned for counters the
// Point does not carry; it is the job's to read until the job returns.
func runQBonePointLabeled(ctx *Ctx, labelPrefix string, cfg topology.QBoneConfig, ref *video.Encoding) (Point, *topology.QBone) {
	rec := ctx.NewRecorder()
	cfg.Pool, cfg.Sim, cfg.Recv, cfg.Trace = ctx.Pool, ctx.Sim, ctx.Recv, rec
	q := topology.BuildQBone(cfg)
	q.Run()
	ctx.Finish(labelPrefix+pointLabel(cfg.TokenRate, cfg.Depth, cfg.Seed), rec, q.Sim, topology.ShardStats{}, 0, time.Time{})
	ev := ctx.Eval.Evaluate(q.Client.Trace(), cfg.Enc, ref)
	if q.Policer != nil {
		ev.PacketLoss = q.Policer.LossFraction()
	}
	return Point{TokenRate: cfg.TokenRate, Depth: cfg.Depth, Evaluation: ev}, q
}

// relativeSpec parameterizes the Figs. 13–14 experiments: three
// encodings of the same clip streamed at each token rate with a fixed
// depth, all scored against the highest-quality (1.7 Mbps) encoding.
type relativeSpec struct {
	Key      string // registry name, e.g. "fig13"
	ID       string
	Title    string
	Clip     *video.Clip
	EncRates []units.BitRate
	RefRate  units.BitRate
	Tokens   []units.BitRate
	Depth    units.ByteSize
	Seed     uint64
}

// Name implements Scenario.
func (spec relativeSpec) Name() string { return spec.Key }

// Describe implements Scenario.
func (spec relativeSpec) Describe() string { return spec.Title }

// Jobs enumerates one seed-averaged job per (encoding, token) grid
// point. The cached-encoding layer guarantees the reference-rate
// series streams the very *Encoding it is scored against, as the
// serial code did.
func (spec relativeSpec) Jobs() []Job {
	ref := video.CachedCBR(spec.Clip, spec.RefRate)
	var jobs []Job
	for _, er := range spec.EncRates {
		enc := video.CachedCBR(spec.Clip, er)
		for _, tok := range spec.Tokens {
			enc, tok, er := enc, tok, er
			jobs = append(jobs, func(ctx *Ctx) Point {
				// The encoding rate disambiguates trace files: every
				// series shares the same (token, depth, seed) grid.
				return runQBonePointAvgLabeled(ctx, fmt.Sprintf("enc%d-", int64(er)), topology.QBoneConfig{
					Seed: spec.Seed, Enc: enc, TokenRate: tok, Depth: spec.Depth}, ref, seedRuns)
			})
		}
	}
	return jobs
}

// Assemble implements Scenario: one series per encoding rate.
func (spec relativeSpec) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: spec.ID, Title: spec.Title},
		len(spec.EncRates), len(spec.Tokens), results,
		func(i int) string { return spec.EncRates[i].String() })
}

// Scaled implements Scalable.
func (spec relativeSpec) Scaled(n int) Scenario {
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
				return runLocalPoint(ctx, "", topology.LocalConfig{Seed: spec.Seed, Enc: enc,
					TokenRate: tok, Depth: depth, UseTCP: spec.UseTCP, UseShaper: spec.UseShaper})
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

// runLocalPoint streams cfg.Enc through the local testbed configured
// by cfg on ctx and evaluates it against itself; the label prefix is
// runQBonePointLabeled's.
func runLocalPoint(ctx *Ctx, labelPrefix string, cfg topology.LocalConfig) Point {
	rec := ctx.NewRecorder()
	cfg.Pool, cfg.Sim, cfg.Recv, cfg.Trace = ctx.Pool, ctx.Sim, ctx.Recv, rec
	l := topology.BuildLocal(cfg)
	l.Run()
	ctx.Finish(labelPrefix+pointLabel(cfg.TokenRate, cfg.Depth, cfg.Seed), rec, l.Sim, topology.ShardStats{}, 0, time.Time{})
	ev := ctx.Eval.Evaluate(l.Trace(), cfg.Enc, cfg.Enc)
	if l.Policer != nil {
		ev.PacketLoss = l.Policer.LossFraction()
	}
	return Point{TokenRate: cfg.TokenRate, Depth: cfg.Depth, Evaluation: ev}
}

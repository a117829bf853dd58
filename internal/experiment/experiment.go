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
	// Runs[i] is what grid point i's seeds reported through Ctx.Finish,
	// folded and filed by RunScenarioOpts, so each point appears once
	// however many series its Point was folded into. Never figure
	// output.
	Runs []RunStats

	// layout, when set at Assemble, prints the rows under the title line
	// in place of gridTable; a figure with a layout is a table, not a
	// chart (see Plot).
	layout func(b *strings.Builder, f *Figure)
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

// seedRuns is how many consecutive seeds a figure point averages unless
// its spec says otherwise.
const seedRuns = 3

// Name, Describe, Jobs and Assemble implement Scenario: the record's.
func (spec QBoneSpec) Name() string                     { return spec.Grid().Name() }
func (spec QBoneSpec) Describe() string                 { return spec.Grid().Describe() }
func (spec QBoneSpec) Jobs() []Job                      { return spec.Grid().Jobs() }
func (spec QBoneSpec) Assemble(results []Point) *Figure { return spec.Grid().Assemble(results) }

// Grid implements Scenario: one point per (depth, token), depth-major,
// at Runs seeds (0 means seedRuns), folded into one curve per depth.
func (spec QBoneSpec) Grid() *Grid {
	runs := spec.Runs
	if runs <= 0 {
		runs = seedRuns
	}
	return &Grid{Key: spec.Key, ID: spec.ID, Title: spec.Title,
		Points: len(spec.Depths) * len(spec.Tokens), Seed: spec.Seed, Seeds: runs,
		Run: func(ctx *Ctx, i int, seed uint64) Point {
			enc := video.CachedCBR(spec.Clip, spec.EncRate)
			p, _ := runQBonePointLabeled(ctx, "", topology.QBoneConfig{Seed: seed, Enc: enc,
				TokenRate: spec.Tokens[i%len(spec.Tokens)], Depth: spec.Depths[i/len(spec.Tokens)],
				CrossLoad: spec.CrossLoad}, enc)
			return p
		},
		Fold: func(rs []Point) []Series { return byRows(rs, labels("B=%d", spec.Depths)...) },
		Thin: func(n int) Scenario {
			spec := spec
			spec.Tokens = Scale(spec.Tokens, n)
			return spec
		},
	}
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
	q.RunVideo()
	ctx.Finish(labelPrefix+pointLabel(cfg.TokenRate, cfg.Depth, cfg.Seed), rec, q.Sim, topology.ShardStats{}, 0, time.Time{})
	ctx.Run.Ties += q.Ties()
	ev := ctx.Eval.Evaluate(q.Client.Trace(), cfg.Enc, ref)
	if q.Policer != nil {
		ev.PacketLoss = q.Policer.LossFraction()
	}
	return Point{TokenRate: cfg.TokenRate, Depth: cfg.Depth, Evaluation: ev}, q
}

// relativeGrid is the Figs. 13–14 experiment: encodings of the same
// clip streamed at each token rate with a fixed depth, all scored
// against the highest-quality (1.7 Mbps) encoding, one curve per
// encoding rate. The cached-encoding layer guarantees the
// reference-rate series streams the very *Encoding it is scored
// against.
func relativeGrid(key, id, title string, clip *video.Clip, encRates, tokens []units.BitRate) *Grid {
	const refRate, depth = 1.7e6, 3000
	return &Grid{Key: key, ID: id, Title: title,
		Points: len(encRates) * len(tokens), Seed: DefaultSeed, Seeds: seedRuns,
		Run: func(ctx *Ctx, i int, seed uint64) Point {
			er := encRates[i/len(tokens)]
			// The encoding rate disambiguates trace files: every series
			// shares the same (token, depth, seed) grid.
			p, _ := runQBonePointLabeled(ctx, fmt.Sprintf("enc%d-", int64(er)), topology.QBoneConfig{
				Seed: seed, Enc: video.CachedCBR(clip, er), TokenRate: tokens[i%len(tokens)], Depth: depth},
				video.CachedCBR(clip, refRate))
			return p
		},
		Fold: func(rs []Point) []Series { return byRows(rs, labels("%s", encRates)...) },
		Thin: func(n int) Scenario { return relativeGrid(key, id, title, clip, encRates, Scale(tokens, n)) },
	}
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

// Name, Describe, Jobs and Assemble implement Scenario: the record's.
func (spec LocalSpec) Name() string                     { return spec.Grid().Name() }
func (spec LocalSpec) Describe() string                 { return spec.Grid().Describe() }
func (spec LocalSpec) Jobs() []Job                      { return spec.Grid().Jobs() }
func (spec LocalSpec) Assemble(results []Point) *Figure { return spec.Grid().Assemble(results) }

// Grid implements Scenario: one single-seed point per (depth, token),
// depth-major, folded into one curve per depth.
func (spec LocalSpec) Grid() *Grid {
	return &Grid{Key: spec.Key, ID: spec.ID, Title: spec.Title,
		Points: len(spec.Depths) * len(spec.Tokens), Seed: spec.Seed,
		Run: func(ctx *Ctx, i int, seed uint64) Point {
			return runLocalPoint(ctx, "", topology.LocalConfig{Seed: seed,
				Enc:       video.CachedVBR(spec.Clip, units.BitRate(spec.CapKbps)*units.Kbps),
				TokenRate: spec.Tokens[i%len(spec.Tokens)], Depth: spec.Depths[i/len(spec.Tokens)],
				UseTCP: spec.UseTCP, UseShaper: spec.UseShaper})
		},
		Fold: func(rs []Point) []Series { return byRows(rs, labels("B=%d", spec.Depths)...) },
		Thin: func(n int) Scenario {
			spec := spec
			spec.Tokens = Scale(spec.Tokens, n)
			return spec
		},
	}
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

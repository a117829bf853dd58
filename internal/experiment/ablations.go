package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// ablations are the extension experiments beyond the paper's published
// figures, whose findings ablations_test.go asserts: registered
// scenarios like the figures, each run at one seed, and listed (and run
// by `dsbench -run all`) after every other scenario in this order.
var ablations = []Scenario{
	shapeAblation(TokenSweep(1500, 2100, 200)),
	hopsAblation([]int{1, 2, 4, 8, 12}),
	jitterAblation([]int{1, 2, 4, 6, 8}),
	afAblation([]float64{0.15, 0.45, 0.75}, []units.BitRate{0.6e6, 1.0e6, 1.4e6}),
	tcpAblation(TokenSweep(900, 2500, 400)),
	efServiceAblation([]float64{0.02, 0.2, 0.5, 0.8}),
}

func init() {
	for _, a := range ablations {
		Register(a)
	}
}

// ablation is an extension experiment as a Scenario: one single-seed
// job per (series, row) cell of its grid, series-major, each labelled
// with its row and folded into one Series per series label. The table
// it prints is its layout.
type ablation struct {
	key, desc, id, title string
	enc                  func() *video.Encoding // the streamed clip, encoded at Jobs
	series, rows         []string
	// point runs cell (s, r) on ctx; label prefixes its trace file.
	point  func(ctx *Ctx, enc *video.Encoding, label string, s, r int) Point
	layout func(b *strings.Builder, f *Figure)
}

// Name implements Scenario.
func (a ablation) Name() string { return a.key }

// Describe implements Scenario.
func (a ablation) Describe() string { return a.desc }

// Jobs implements Scenario.
func (a ablation) Jobs() []Job {
	enc := a.enc()
	var jobs []Job
	for s := range a.series {
		for r := range a.rows {
			s, r := s, r
			jobs = append(jobs, func(ctx *Ctx) Point {
				p := a.point(ctx, enc, a.series[s]+"-"+a.rows[r]+"-", s, r)
				p.Label = a.rows[r]
				return p
			})
		}
	}
	return jobs
}

// Assemble implements Scenario.
func (a ablation) Assemble(results []Point) *Figure {
	return foldRows(&Figure{ID: a.id, Title: a.title, layout: a.layout},
		len(a.series), len(a.rows), results, func(s int) string { return a.series[s] })
}

// labels formats each x with format.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// lostCBR encodes the Lost clip at rate on first use.
func lostCBR(rate units.BitRate) func() *video.Encoding {
	return func() *video.Encoding { return video.CachedCBR(video.Lost(), rate) }
}

// shapeAblation compares drop policing against shaping at the QBone
// border across token rates, at both depths. It prints the default
// table but, as an ablation, no chart.
func shapeAblation(tokens []units.BitRate) ablation {
	depths := StandardDepths()
	return ablation{key: "abl-shape", desc: "Ablation: drop vs shape at the QBone border",
		id: "Ablation A", title: "QBone border: drop policing vs shaping (Lost @ 1.7M)",
		enc:    lostCBR(1.7e6),
		series: []string{"drop/B=3000", "drop/B=4500", "shape/B=3000", "shape/B=4500"},
		rows:   labels("%s", tokens),
		point: func(ctx *Ctx, enc *video.Encoding, label string, s, r int) Point {
			p, _ := runQBonePointLabeled(ctx, label, topology.QBoneConfig{Seed: DefaultSeed, Enc: enc,
				TokenRate: tokens[r], Depth: depths[s%2], Shape: s >= 2}, enc)
			return p
		},
		layout: gridTable,
	}
}

// hopsAblation sweeps the number of QBone hops at a fixed profile,
// quantifying the multi-hop burst-accumulation concern the paper
// raises when discussing larger EF buckets (citing Bennett et al.).
func hopsAblation(hops []int) ablation {
	return ablation{key: "abl-hops", desc: "Ablation: EF burst accumulation over hop count",
		id: "Ablation B", title: "EF across increasing hop counts (Lost @ 1.0M, token 1.1M, B=4500)",
		enc: lostCBR(1.0e6), series: []string{"hops"}, rows: labels("%d", hops),
		point: func(ctx *Ctx, enc *video.Encoding, label string, _, r int) Point {
			p, _ := runQBonePointLabeled(ctx, label, topology.QBoneConfig{Seed: DefaultSeed, Enc: enc,
				TokenRate: 1.1e6, Depth: 4500, Hops: hops[r], CrossLoad: 0.3}, enc)
			return p
		},
		layout: func(b *strings.Builder, f *Figure) {
			fmt.Fprintf(b, "%-6s %-12s %-12s %-10s\n", "Hops", "FrameLoss", "Quality", "PktLoss")
			for _, p := range f.Series[0].Points {
				fmt.Fprintf(b, "%-6s %-12.4f %-12.3f %-10.4f\n", p.Label, p.FrameLoss, p.Quality, p.PacketLoss)
			}
		},
	}
}

// jitterAblation sweeps the campus jitter (ms) ahead of the policer —
// the quantitative version of §3.2's observation that cross traffic
// before the policing point pushes otherwise conformant packets out of
// profile (the ATM CDV-tolerance analogy).
func jitterAblation(jitterMs []int) ablation {
	depths := StandardDepths()
	return ablation{key: "abl-jitter", desc: "Ablation: pre-policer jitter vs conformance",
		id: "Ablation C", title: "pre-policer jitter vs conformance (Lost @ 1.7M, token=avg)",
		enc: lostCBR(1.7e6), series: labels("B=%d", depths), rows: labels("%dms", jitterMs),
		point: func(ctx *Ctx, enc *video.Encoding, label string, s, r int) Point {
			p, _ := runQBonePointLabeled(ctx, label, topology.QBoneConfig{Seed: DefaultSeed, Enc: enc,
				TokenRate: 1.72e6, Depth: depths[s], CampusJitter: units.Time(jitterMs[r]) * units.Millisecond}, enc)
			return p
		},
		layout: func(b *strings.Builder, f *Figure) {
			fmt.Fprintf(b, "%-10s %-14s %-14s %-12s %-12s\n", "Jitter", "PktLoss(3000)", "QI(3000)", "PktLoss(4500)", "QI(4500)")
			for i, p := range f.Series[0].Points {
				q := f.Series[1].Points[i]
				fmt.Fprintf(b, "%-10s %-14.4f %-14.3f %-12.4f %-12.3f\n", p.Label, p.PacketLoss, p.Quality, q.PacketLoss, q.Quality)
			}
		},
	}
}

// afAblation runs the AF experiment the paper deferred: the video is
// srTCM-coloured (never dropped at the edge) and competes inside a RIO
// AF class at a congested hop. Swept over in-class load (one series
// each) and CIR (the point's TokenRate), it shows the cross-traffic
// dependence the authors called out.
func afAblation(loads []float64, cirs []units.BitRate) ablation {
	return ablation{key: "abl-af", desc: "Ablation: Assured Forwarding (srTCM + RIO)",
		id: "Ablation D", title: "Assured Forwarding (srTCM + RIO), Lost @ 1.0M",
		enc: lostCBR(1.0e6), series: labels("%.2f", loads), rows: labels("%s", cirs),
		point: func(ctx *Ctx, enc *video.Encoding, label string, s, r int) Point {
			rec := ctx.NewRecorder()
			a := topology.BuildAF(topology.AFConfig{Seed: DefaultSeed, Enc: enc, CIR: cirs[r], AFLoad: loads[s],
				Pool: ctx.Pool, Sim: ctx.Sim, Recv: ctx.Recv, Trace: rec})
			a.Run()
			ctx.Finish(label+fmt.Sprintf("s%d", DefaultSeed), rec, a.Sim, topology.ShardStats{}, 0, time.Time{})
			m := a.Marker
			return Point{TokenRate: cirs[r], Green: m.Green, Yellow: m.Yellow, Red: m.Red,
				Evaluation: ctx.Eval.Evaluate(a.Client.Trace(), enc, enc)}
		},
		layout: func(b *strings.Builder, f *Figure) {
			fmt.Fprintf(b, "%-8s %-8s %-22s %-12s %-10s\n", "AFLoad", "CIR", "colors (G/Y/R)", "FrameLoss", "Quality")
			for _, s := range f.Series {
				for _, p := range s.Points {
					fmt.Fprintf(b, "%-8s %-8s %6d/%6d/%6d   %-12.4f %-10.3f\n",
						s.Label, p.TokenRate, p.Green, p.Yellow, p.Red, p.FrameLoss, p.Quality)
				}
			}
		},
	}
}

// tcpAblation contrasts the local testbed over TCP with the era's
// stack (no Limited Transmit: tiny windows starve fast retransmit, so
// policing losses become RTO stalls) against a stack with RFC 3042.
// The paper reports TCP "produced better quality results" than UDP but
// still could not reach a perfect score at B=3000; the era-stack
// column shows why, and the RFC 3042 column shows how little it would
// have taken to fix.
func tcpAblation(tokens []units.BitRate) ablation {
	return ablation{key: "abl-tcp", desc: "Ablation: local TCP, era stack vs RFC 3042",
		id: "Ablation E", title: "local testbed over TCP, B=3000: era stack vs RFC 3042",
		enc: func() *video.Encoding {
			return video.CachedVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
		},
		series: []string{"era", "RFC3042"}, rows: labels("%s", tokens),
		point: func(ctx *Ctx, enc *video.Encoding, label string, s, r int) Point {
			return runLocalPoint(ctx, label, topology.LocalConfig{Seed: DefaultSeed, Enc: enc,
				TokenRate: tokens[r], Depth: 3000, UseTCP: true, LimitedTransmit: s == 1})
		},
		layout: func(b *strings.Builder, f *Figure) {
			fmt.Fprintf(b, "%-10s %-24s %-24s\n", "Token", "era (loss / QI)", "RFC3042 (loss / QI)")
			for i, p := range f.Series[0].Points {
				q := f.Series[1].Points[i]
				fmt.Fprintf(b, "%-10v %7.3f / %-14.3f %7.3f / %-14.3f\n", p.TokenRate, p.FrameLoss, p.Quality, q.FrameLoss, q.Quality)
			}
		},
	}
}

// efServiceAblation summarizes the network-level service the EF
// aggregate received (delay, jitter, loss) across cross-traffic loads
// — the paper's premise that EF keeps delay and jitter small is what
// confused the adaptive servers, so it is worth demonstrating.
func efServiceAblation(loads []float64) ablation {
	return ablation{key: "ef-service", desc: "EF delay/jitter/loss vs cross load",
		title: "EF service quality vs best-effort cross load (Lost @ 1.0M, token 1.3M, B=4500)",
		enc:   lostCBR(1.0e6), series: []string{"load"}, rows: labels("%.2f", loads),
		point: func(ctx *Ctx, enc *video.Encoding, label string, _, r int) Point {
			p, q := runQBonePointLabeled(ctx, label, topology.QBoneConfig{Seed: DefaultSeed, Enc: enc,
				TokenRate: 1.3e6, Depth: 4500, CrossLoad: loads[r]}, enc)
			d := q.Delay
			p.DelayMean, p.DelayP99, p.Jitter = d.Delay.Mean(), d.Delay.Percentile(99), d.Jitter.Mean()
			return p
		},
		layout: func(b *strings.Builder, f *Figure) {
			fmt.Fprintf(b, "%-10s %-12s %-12s %-12s %-12s\n", "CrossLoad", "MeanDelay", "p99Delay", "MeanJitter", "PktLoss")
			for _, p := range f.Series[0].Points {
				fmt.Fprintf(b, "%-10s %-12.2e %-12.2e %-12.2e %-12.4f\n", p.Label, p.DelayMean, p.DelayP99, p.Jitter, p.PacketLoss)
			}
		},
	}
}

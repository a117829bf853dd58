package experiment

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// This file holds the extension experiments beyond the paper's
// published figures, whose findings ablations_test.go asserts: the
// shaper-vs-dropper ablation, the multi-hop EF burst-accumulation
// sweep, the pre-policer jitter sweep (the §3.2 CDV-tolerance
// discussion made quantitative), and the Assured Forwarding experiment
// the paper deferred.

// AblationShaperVsDrop compares drop policing against shaping at the
// QBone border across token rates, at both depths.
func AblationShaperVsDrop(seed uint64) *Figure {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	fig := &Figure{ID: "Ablation A", Title: "QBone border: drop policing vs shaping (Lost @ 1.7M)"}
	for _, mode := range []struct {
		label string
		shape bool
	}{{"drop", false}, {"shape", true}} {
		for _, depth := range []units.ByteSize{3000, 4500} {
			s := Series{Label: fmt.Sprintf("%s/B=%d", mode.label, int64(depth))}
			for _, tok := range TokenSweep(1500, 2100, 200) {
				q := topology.BuildQBone(topology.QBoneConfig{
					Seed: seed, Enc: enc, TokenRate: tok, Depth: depth, Shape: mode.shape,
				})
				q.Client.Tolerance = client.SliceTolerance
				q.Run()
				ev := Evaluate(q.Client.Trace(), enc, enc)
				if q.Policer != nil {
					ev.PacketLoss = q.Policer.LossFraction()
				}
				s.Points = append(s.Points, Point{TokenRate: tok, Depth: depth, Evaluation: ev})
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig
}

// AblationHopCount sweeps the number of QBone hops at a fixed profile,
// quantifying the multi-hop burst-accumulation concern the paper
// raises when discussing larger EF buckets (citing Bennett et al.).
func AblationHopCount(seed uint64) string {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	var b strings.Builder
	b.WriteString("Ablation B — EF across increasing hop counts (Lost @ 1.0M, token 1.1M, B=4500)\n")
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-10s\n", "Hops", "FrameLoss", "Quality", "PktLoss")
	for _, hops := range []int{1, 2, 4, 8, 12} {
		q := topology.BuildQBone(topology.QBoneConfig{
			Seed: seed, Enc: enc, TokenRate: 1.1e6, Depth: 4500,
			Hops: hops, CrossLoad: 0.3,
		})
		q.Client.Tolerance = client.SliceTolerance
		q.Run()
		ev := Evaluate(q.Client.Trace(), enc, enc)
		fmt.Fprintf(&b, "%-6d %-12.4f %-12.3f %-10.4f\n",
			hops, ev.FrameLoss, ev.Quality, q.Policer.LossFraction())
	}
	return b.String()
}

// AblationJitter sweeps the campus jitter ahead of the policer — the
// quantitative version of §3.2's observation that cross traffic before
// the policing point pushes otherwise conformant packets out of
// profile (the ATM CDV-tolerance analogy).
func AblationJitter(seed uint64) string {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	var b strings.Builder
	b.WriteString("Ablation C — pre-policer jitter vs conformance (Lost @ 1.7M, token=avg)\n")
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-12s %-12s\n", "Jitter", "PktLoss(3000)", "QI(3000)", "PktLoss(4500)", "QI(4500)")
	for _, jms := range []int{1, 2, 4, 6, 8} {
		row := make([]float64, 0, 4)
		for _, depth := range []units.ByteSize{3000, 4500} {
			q := topology.BuildQBone(topology.QBoneConfig{
				Seed: seed, Enc: enc, TokenRate: 1.72e6, Depth: depth,
				CampusJitter: units.Time(jms) * units.Millisecond,
			})
			q.Client.Tolerance = client.SliceTolerance
			q.Run()
			ev := Evaluate(q.Client.Trace(), enc, enc)
			row = append(row, q.Policer.LossFraction(), ev.Quality)
		}
		fmt.Fprintf(&b, "%-10s %-14.4f %-14.3f %-12.4f %-12.3f\n",
			fmt.Sprintf("%dms", jms), row[0], row[1], row[2], row[3])
	}
	return b.String()
}

// AblationLocalTCP contrasts the local testbed over TCP with the
// era's stack (no Limited Transmit: tiny windows starve fast
// retransmit, so policing losses become RTO stalls) against a stack
// with RFC 3042. The paper reports TCP "produced better quality
// results" than UDP but still could not reach a perfect score at
// B=3000; the era-stack column shows why, and the RFC 3042 column
// shows how little it would have taken to fix.
func AblationLocalTCP(seed uint64) string {
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	var b strings.Builder
	b.WriteString("Ablation E — local testbed over TCP, B=3000: era stack vs RFC 3042\n")
	fmt.Fprintf(&b, "%-10s %-24s %-24s\n", "Token", "era (loss / QI)", "RFC3042 (loss / QI)")
	for _, tok := range TokenSweep(900, 2500, 400) {
		row := make([]float64, 0, 4)
		for _, lt := range []bool{false, true} {
			l := topology.BuildLocal(topology.LocalConfig{
				Seed: seed, Enc: enc, TokenRate: tok, Depth: 3000,
				UseTCP: true, LimitedTransmit: lt,
			})
			l.Run()
			ev := Evaluate(l.Trace(), enc, enc)
			row = append(row, ev.FrameLoss, ev.Quality)
		}
		fmt.Fprintf(&b, "%-10v %7.3f / %-14.3f %7.3f / %-14.3f\n", tok, row[0], row[1], row[2], row[3])
	}
	return b.String()
}

// EFServiceReport summarizes the network-level service the EF
// aggregate received (delay, jitter, loss) across cross-traffic loads
// — the paper's premise that EF keeps delay and jitter small is what
// confused the adaptive servers, so it is worth demonstrating.
func EFServiceReport(seed uint64) string {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	var b strings.Builder
	b.WriteString("EF service quality vs best-effort cross load (Lost @ 1.0M, token 1.3M, B=4500)\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-12s %-12s\n", "CrossLoad", "MeanDelay", "p99Delay", "MeanJitter", "PktLoss")
	for _, load := range []float64{0.02, 0.2, 0.5, 0.8} {
		q := topology.BuildQBone(topology.QBoneConfig{
			Seed: seed, Enc: enc, TokenRate: 1.3e6, Depth: 4500, CrossLoad: load,
		})
		q.Client.Tolerance = client.SliceTolerance
		q.Run()
		fmt.Fprintf(&b, "%-10.2f %-12.2e %-12.2e %-12.2e %-12.4f\n",
			load, q.Delay.Delay.Mean(), q.Delay.Delay.Percentile(99),
			q.Delay.Jitter.Mean(), q.Policer.LossFraction())
	}
	return b.String()
}

// AFPoint is one sample of the Assured Forwarding extension.
type AFPoint struct {
	CIR                units.BitRate
	AFLoad             float64
	Green, Yellow, Red int
	Evaluation
}

// AblationAF runs the AF experiment the paper deferred: the video is
// srTCM-colored (never dropped at the edge) and competes inside a RIO
// AF class at a congested hop. Swept over CIR and in-class load, it
// shows the cross-traffic dependence the authors called out.
func AblationAF(seed uint64) []AFPoint {
	return AblationAFGrid(seed,
		[]float64{0.15, 0.45, 0.75},
		[]units.BitRate{0.6e6, 1.0e6, 1.4e6})
}

// AblationAFGrid runs the AF experiment over an explicit (load, CIR)
// grid — the full ablation uses the default grid, reduced grids serve
// the preset golden tests.
func AblationAFGrid(seed uint64, loads []float64, cirs []units.BitRate) []AFPoint {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	var out []AFPoint
	for _, load := range loads {
		for _, cir := range cirs {
			a := topology.BuildAF(topology.AFConfig{
				Seed: seed, Enc: enc, CIR: cir, AFLoad: load,
			})
			a.Run()
			out = append(out, AFPoint{
				CIR: cir, AFLoad: load,
				Green: a.Marker.Green, Yellow: a.Marker.Yellow, Red: a.Marker.Red,
				Evaluation: Evaluate(a.Client.Trace(), enc, enc),
			})
		}
	}
	return out
}

// FormatAF renders the AF ablation.
func FormatAF(points []AFPoint) string {
	var b strings.Builder
	b.WriteString("Ablation D — Assured Forwarding (srTCM + RIO), Lost @ 1.0M\n")
	fmt.Fprintf(&b, "%-8s %-8s %-22s %-12s %-10s\n", "AFLoad", "CIR", "colors (G/Y/R)", "FrameLoss", "Quality")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.2f %-8s %6d/%6d/%6d   %-12.4f %-10.3f\n",
			p.AFLoad, p.CIR, p.Green, p.Yellow, p.Red, p.FrameLoss, p.Quality)
	}
	return b.String()
}

package experiment

import (
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// qbonePoint is one QBone grid point on fresh Ctxs: enc streamed at
// (tok, depth) and scored against ref, averaged by the runner's seed
// fold over runs consecutive seeds from seed. runs ≤ 1 is the single
// run at seed.
func qbonePoint(enc, ref *video.Encoding, tok units.BitRate, depth units.ByteSize, seed uint64, crossLoad float64, runs int) Point {
	ps := make([]Point, max(runs, 1))
	for r := range ps {
		ps[r], _ = runQBonePointLabeled(&Ctx{}, "", topology.QBoneConfig{Seed: seed + uint64(r), Enc: enc,
			TokenRate: tok, Depth: depth, CrossLoad: crossLoad}, ref)
	}
	return meanPoint(ps)
}

func TestRunQBonePointAvgSingleRunEqualsPoint(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	a := qbonePoint(enc, enc, 1.05e6, 3000, DefaultSeed, 0, 1)
	b, _ := runQBonePointLabeled(&Ctx{}, "", topology.QBoneConfig{Seed: DefaultSeed, Enc: enc,
		TokenRate: 1.05e6, Depth: 3000}, enc)
	if a.Quality != b.Quality || a.FrameLoss != b.FrameLoss {
		t.Errorf("runs=1 average differs from single point: %+v vs %+v", a.Evaluation, b.Evaluation)
	}
}

func TestRunQBonePointAvgReducesVariance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	// Averages over overlapping windows move less than single seeds.
	// The four single-seed runs are simulated once; avg1 and avg2 fold
	// seeds 0–2 and 1–3 exactly as qbonePoint(…, 3) would.
	points := make([]Point, 4)
	singles := make([]float64, len(points))
	for i := range points {
		points[i] = qbonePoint(enc, enc, 1.0e6, 3000, DefaultSeed+uint64(i), 0, 1)
		singles[i] = points[i].Quality
	}
	avg1 := meanPoint(points[0:3]).Quality
	avg2 := meanPoint(points[1:4]).Quality
	spreadSingles := maxMin(singles)
	spreadAvgs := avg1 - avg2
	if spreadAvgs < 0 {
		spreadAvgs = -spreadAvgs
	}
	if spreadAvgs > spreadSingles+1e-9 {
		t.Errorf("averaging increased spread: %v vs %v", spreadAvgs, spreadSingles)
	}
}

func maxMin(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

// TestScaleEdgeCases pins Scale over every sweep type it thins: every
// n-th point plus the last, and the input itself when n ≤ 1 or there
// are at most two points.
func TestScaleEdgeCases(t *testing.T) {
	tokens := TokenSweep(100, 1000, 100) // 10 points
	ns := []int{1, 2, 4, 8, 16, 32, 64}
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"tokens/3", Scale(tokens, 3), []units.BitRate{tokens[0], tokens[3], tokens[6], tokens[9]}},
		{"tokens/9", Scale(tokens, 9), []units.BitRate{tokens[0], tokens[9]}},
		{"tokens/20", Scale(tokens, 20), []units.BitRate{tokens[0], tokens[9]}},
		{"tokens/1", Scale(tokens, 1), tokens},
		{"tokens/0", Scale(tokens, 0), tokens},
		{"two tokens", Scale(tokens[:2], 10), tokens[:2]},
		{"nil tokens", Scale([]units.BitRate(nil), 3), []units.BitRate(nil)},
		{"ns/2", Scale(ns, 2), []int{1, 4, 16, 64}},
		{"ns/4", Scale(ns, 4), []int{1, 16, 64}},
		{"ns/-1", Scale(ns, -1), ns},
		{"one n", Scale(ns[:1], 5), ns[:1]},
		{"loads/2", Scale(loads, 2), []float64{0.1, 0.3, 0.5}},
		{"loads/3", Scale(loads, 3), []float64{0.1, 0.4, 0.5}},
		{"two loads", Scale(loads[3:], 2), loads[3:]},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: Scale = %v, want %v", c.name, c.got, c.want)
		}
	}
}

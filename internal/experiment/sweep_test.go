package experiment

import (
	"testing"

	"repro/internal/units"
	"repro/internal/video"
)

// qbonePoint is one QBone grid point on a fresh Ctx: enc streamed at
// (tok, depth) and scored against ref, averaged over runs consecutive
// seeds from seed. runs ≤ 1 is the single run at seed.
func qbonePoint(enc, ref *video.Encoding, tok units.BitRate, depth units.ByteSize, seed uint64, crossLoad float64, runs int) Point {
	return runQBonePointAvgLabeled(&Ctx{}, "", enc, ref, tok, depth, seed, crossLoad, runs)
}

func TestRunQBonePointAvgSingleRunEqualsPoint(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	a := qbonePoint(enc, enc, 1.05e6, 3000, DefaultSeed, 0, 1)
	b := runQBonePointLabeled(&Ctx{}, "", enc, enc, 1.05e6, 3000, DefaultSeed, 0)
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
	singles := make([]float64, 4)
	for i := range singles {
		singles[i] = qbonePoint(enc, enc, 1.0e6, 3000, DefaultSeed+uint64(i), 0, 1).Quality
	}
	avg1 := qbonePoint(enc, enc, 1.0e6, 3000, DefaultSeed, 0, 3).Quality
	avg2 := qbonePoint(enc, enc, 1.0e6, 3000, DefaultSeed+1, 0, 3).Quality
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

func TestScaleEdgeCases(t *testing.T) {
	if got := Scale(nil, 3); got != nil {
		t.Errorf("Scale(nil) = %v", got)
	}
	two := []units.BitRate{1, 2}
	if got := Scale(two, 10); len(got) != 2 {
		t.Errorf("Scale of 2 points = %v", got)
	}
	s := TokenSweep(100, 1000, 100) // 10 points
	got := Scale(s, 3)              // 100, 400, 700, 1000
	if len(got) != 4 || got[3] != s[9] {
		t.Errorf("Scale(10pts, 3) = %v", got)
	}
}

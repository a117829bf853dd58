package experiment

import (
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// localPoint runs cfg with enc at DefaultSeed on a fresh Ctx.
func localPoint(enc *video.Encoding, cfg topology.LocalConfig) Point {
	cfg.Seed, cfg.Enc = DefaultSeed, enc
	return runLocalPoint(&Ctx{}, "", cfg)
}

// The tests in this file are the acceptance criteria of the
// reproduction: each asserts one of the paper's qualitative findings,
// and its name states that shape target. They run full simulations, so
// the heavier ones are skipped under -short.

func TestShapeTokenRateBelowEncodingRateIsUseless(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	p := qbonePoint(enc, enc, 1.2e6, 3000, DefaultSeed, 0, 1)
	if p.Quality < 0.85 {
		t.Errorf("quality %v at 1.2M for a 1.7M stream — should be near worst", p.Quality)
	}
	if p.FrameLoss < 0.2 {
		t.Errorf("frame loss %v — sustained deficit should lose many frames", p.FrameLoss)
	}
}

func TestShapeDepth3000NeedsMaxRate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	max, avg, _ := enc.RateStats()
	atAvg := qbonePoint(enc, enc, units.BitRate(avg), 3000, DefaultSeed, 0, 1)
	atMax := qbonePoint(enc, enc, units.BitRate(max*1.05), 3000, DefaultSeed, 0, 1)
	if atAvg.Quality < 0.12 {
		t.Errorf("B=3000 at the average rate scored %v — too good (§4.1 says it needs ≈max)", atAvg.Quality)
	}
	if atMax.Quality > 0.05 {
		t.Errorf("B=3000 above the max rate scored %v — should be near perfect", atMax.Quality)
	}
}

func TestShapeDepth4500AverageRateSuffices(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	_, avg, _ := enc.RateStats()
	// "a token rate set to the average (constant) encoding rate is
	// typically sufficient" — allow the ~3% IP-header overhead margin.
	p := qbonePoint(enc, enc, units.BitRate(avg*1.03), 4500, DefaultSeed, 0, 1)
	if p.Quality > 0.15 {
		t.Errorf("B=4500 near the average rate scored %v, want ≈0", p.Quality)
	}
	// And B=3000 at the same rate must be clearly worse.
	p3 := qbonePoint(enc, enc, units.BitRate(avg*1.03), 3000, DefaultSeed, 0, 1)
	if p3.Quality < p.Quality+0.05 {
		t.Errorf("depth made no difference at avg rate: B3000=%v B4500=%v", p3.Quality, p.Quality)
	}
}

func TestShapeNonlinearQualityVsLoss(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	// §4.1: below the cutoff, big frame-loss improvements barely move
	// quality (both poor); past it, quality improves much faster.
	enc := video.EncodeCBR(video.Dark(), 1.7e6)
	low := qbonePoint(enc, enc, 1.3e6, 3000, DefaultSeed, 0, 1)
	mid := qbonePoint(enc, enc, 1.5e6, 3000, DefaultSeed, 0, 1)
	high := qbonePoint(enc, enc, 2.0e6, 3000, DefaultSeed, 0, 1)
	lossDrop1 := low.FrameLoss - mid.FrameLoss
	qualDrop1 := low.Quality - mid.Quality
	if lossDrop1 > 0.03 && qualDrop1 > 0.5*lossDrop1+0.3 {
		t.Errorf("below cutoff quality moved too fast: Δloss=%v Δq=%v", lossDrop1, qualDrop1)
	}
	qualDrop2 := mid.Quality - high.Quality
	lossDrop2 := mid.FrameLoss - high.FrameLoss
	if qualDrop2 < lossDrop2 {
		t.Errorf("past cutoff quality (%v) should improve faster than loss (%v)", qualDrop2, lossDrop2)
	}
	if low.Quality < 0.8 || high.Quality > 0.35 {
		t.Errorf("cutoff endpoints wrong: low=%v high=%v", low.Quality, high.Quality)
	}
}

func TestShapeBestEncodingIsLargestBelowTokenRate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	clip := video.Lost()
	ref := video.EncodeCBR(clip, 1.7e6)
	encs := map[string]*video.Encoding{
		"1.0M": video.EncodeCBR(clip, 1.0e6),
		"1.5M": video.EncodeCBR(clip, 1.5e6),
		"1.7M": ref,
	}
	score := func(name string, tok units.BitRate) float64 {
		return qbonePoint(encs[name], ref, tok, 3000, DefaultSeed, 0, 1).Quality
	}
	// At 1.2 Mbps the 1.0M encoding must win.
	if q10, q15 := score("1.0M", 1.2e6), score("1.5M", 1.2e6); q10 >= q15 {
		t.Errorf("at 1.2M: 1.0M=%v not better than 1.5M=%v", q10, q15)
	}
	// At 1.9 Mbps the 1.5M encoding must beat 1.0M (coding quality)
	// and 1.7M (still policed).
	q10, q15, q17 := score("1.0M", 1.9e6), score("1.5M", 1.9e6), score("1.7M", 1.9e6)
	if q15 >= q10 {
		t.Errorf("at 1.9M: 1.5M=%v not better than 1.0M=%v", q15, q10)
	}
	if q15 >= q17 {
		t.Errorf("at 1.9M: 1.5M=%v not better than still-policed 1.7M=%v", q15, q17)
	}
	// At 2.2 Mbps the 1.7M encoding must win outright.
	if q17, q15 := score("1.7M", 2.2e6), score("1.5M", 2.2e6); q17 >= q15 {
		t.Errorf("at 2.2M: 1.7M=%v not better than 1.5M=%v", q17, q15)
	}
}

func TestShapeLocalDepthGapIsLarge(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	// §4.2: the 3000→4500 improvement is much larger with the bursty
	// VBR server than on the QBone; B=3000 never reaches 0 even at
	// twice the cap, B=4500 is near 0 from moderate rates.
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	b3 := localPoint(enc, topology.LocalConfig{TokenRate: 2.1e6, Depth: 3000})
	b45 := localPoint(enc, topology.LocalConfig{TokenRate: 2.1e6, Depth: 4500})
	if b3.Quality < 0.15 {
		t.Errorf("B=3000 at 2.1M scored %v — paper could not reach 0 there", b3.Quality)
	}
	if b45.Quality > 0.05 {
		t.Errorf("B=4500 at 2.1M scored %v, want ≈0", b45.Quality)
	}
	if b3.Quality-b45.Quality < 0.15 {
		t.Errorf("local depth gap too small: %v vs %v", b3.Quality, b45.Quality)
	}
}

func TestShapeShapingHelps(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	dropOnly := localPoint(enc, topology.LocalConfig{TokenRate: 1.3e6, Depth: 3000})
	shaped := localPoint(enc, topology.LocalConfig{TokenRate: 1.3e6, Depth: 3000, UseShaper: true})
	if shaped.Quality >= dropOnly.Quality {
		t.Errorf("shaping did not help: %v vs %v", shaped.Quality, dropOnly.Quality)
	}
	if shaped.Quality > 0.05 {
		t.Errorf("shaped quality %v, want ≈0 at 1.3M", shaped.Quality)
	}
}

func TestFigureSpecsRunScaled(t *testing.T) {
	t.Parallel()
	// Every figure spec must run end to end (scaled down) and produce
	// well-formed, plottable output. Under -short the grid shrinks to
	// the sweep endpoints with a single seed, so the path still runs.
	spec := Figure9Spec()
	spec.Tokens = Scale(spec.Tokens, 4)
	if testing.Short() {
		spec.Tokens = Scale(spec.Tokens, len(spec.Tokens))
		spec.Runs = 1
	}
	fig := RunScenarioOpts(spec, RunOptions{})
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(spec.Tokens) {
			t.Errorf("series %s: %d points, want %d", s.Label, len(s.Points), len(spec.Tokens))
		}
		for _, p := range s.Points {
			if p.Quality < 0 || p.Quality > 1.2 || p.FrameLoss < 0 || p.FrameLoss > 1 {
				t.Errorf("out-of-range point: %+v", p)
			}
		}
	}
	out := fig.Format()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "B=3000") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestLocalSpecRunScaled(t *testing.T) {
	t.Parallel()
	spec := Figure15Spec()
	spec.Tokens = Scale(spec.Tokens, 5)
	if testing.Short() {
		spec.Tokens = Scale(spec.Tokens, len(spec.Tokens))
	}
	fig := RunScenarioOpts(spec, RunOptions{})
	if len(fig.Series) != 2 || len(fig.Series[0].Points) == 0 {
		t.Fatal("malformed local figure")
	}
}

func TestRelativeSpecRunScaled(t *testing.T) {
	t.Parallel()
	spec := Figure14Spec()
	spec.Tokens = []units.BitRate{900 * units.Kbps, 2.1e6}
	if testing.Short() {
		spec.Tokens = spec.Tokens[:1]
		spec.EncRates = spec.EncRates[1:]
	}
	fig := RunScenarioOpts(spec, RunOptions{})
	if len(fig.Series) != len(spec.EncRates) {
		t.Fatalf("series = %d, want one per encoding", len(fig.Series))
	}
}

func TestTokenSweepAndScale(t *testing.T) {
	s := TokenSweep(1200, 2200, 100)
	if len(s) != 11 || s[0] != 1.2e6 || s[10] != 2.2e6 {
		t.Errorf("TokenSweep wrong: %v", s)
	}
	sc := Scale(s, 4)
	if sc[0] != s[0] || sc[len(sc)-1] != s[len(s)-1] {
		t.Errorf("Scale lost endpoints: %v", sc)
	}
	if len(Scale(s, 1)) != len(s) {
		t.Error("Scale(1) must be identity")
	}
}

func TestTable4Content(t *testing.T) {
	out := Table4()
	for _, want := range []string{"QBone", "Video Charger", "Windows Media", "EF", "Drop", "Shape"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestFigure6Output(t *testing.T) {
	out := Figure6(video.Lost(), 200)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "1.7M") {
		t.Error("Figure 6 output malformed")
	}
	lines := strings.Count(out, "\n")
	if lines < 10 {
		t.Errorf("Figure 6 too short: %d lines", lines)
	}
}

func TestEvaluatePipelinePerfect(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	// A generous profile: the pipeline runs even under -short.
	if q := qbonePoint(enc, enc, 3e6, 9000, DefaultSeed, 0, 1).Quality; q > 0.02 {
		t.Errorf("clean pipeline scored %v", q)
	}
}

package experiment

import (
	"os"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/units"
)

// TestAblationAFCrossTrafficDependence asserts the reason the paper
// deferred AF (§2.1): outcomes depend on the in-class cross traffic.
// With a lightly loaded class, even a too-small CIR (lots of red
// packets) streams perfectly; under heavy in-class load, quality
// becomes a function of the committed rate.
func TestAblationAFCrossTrafficDependence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	fig := RunScenarioOpts(Lookup("abl-af"), RunOptions{})
	t.Log("\n" + fig.Format())
	// Series are in-class loads, points CIRs (as TokenRate).
	byKey := map[[2]string]Point{}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			byKey[[2]string{s.Label, p.TokenRate.String()}] = p
		}
	}
	lowLoadSmallCIR := byKey[[2]string{"0.15", "600Kbps"}]
	highLoadSmallCIR := byKey[[2]string{"0.75", "600Kbps"}]
	highLoadBigCIR := byKey[[2]string{"0.75", "1.4Mbps"}]
	if lowLoadSmallCIR.Green == 0 || highLoadBigCIR.Green == 0 {
		t.Fatalf("grid points missing: %v", byKey)
	}
	if lowLoadSmallCIR.Quality > 0.05 {
		t.Errorf("light AF class: quality %v despite red marking — RIO should not drop", lowLoadSmallCIR.Quality)
	}
	if highLoadSmallCIR.Quality <= lowLoadSmallCIR.Quality+0.05 {
		t.Errorf("congested AF class did not punish out-of-profile traffic: %v vs %v",
			highLoadSmallCIR.Quality, lowLoadSmallCIR.Quality)
	}
	if highLoadBigCIR.Quality > 0.05 {
		t.Errorf("all-green stream suffered under load: %v", highLoadBigCIR.Quality)
	}
	if highLoadSmallCIR.Quality <= highLoadBigCIR.Quality {
		t.Error("CIR made no difference under congestion")
	}
	// Marking itself must be monotone in CIR.
	if !(byKey[[2]string{"0.15", "600Kbps"}].Red > byKey[[2]string{"0.15", "1Mbps"}].Red &&
		byKey[[2]string{"0.15", "1Mbps"}].Red >= byKey[[2]string{"0.15", "1.4Mbps"}].Red) {
		t.Error("red packet count not monotone in CIR")
	}
}

func TestAblationShaperVsDrop(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	fig := RunScenarioOpts(Lookup("abl-shape"), RunOptions{})
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Where the profile covers the stream (token ≥ avg rate), shaping
	// must be at least as good as dropping: the playout buffer absorbs
	// the shaper's small delays, while policer losses are permanent.
	// Below the average rate both are bad — a shaper under sustained
	// deficit builds unbounded delay — so no ordering is asserted.
	get := func(label string) Series {
		for _, s := range fig.Series {
			if s.Label == label {
				return s
			}
		}
		t.Fatalf("missing series %s", label)
		return Series{}
	}
	for _, depth := range []string{"B=3000", "B=4500"} {
		drop, shape := get("drop/"+depth), get("shape/"+depth)
		for i := range drop.Points {
			if drop.Points[i].TokenRate < 1.7e6 {
				continue // sustained-deficit regime
			}
			if shape.Points[i].Quality > drop.Points[i].Quality+0.05 {
				t.Errorf("%s @ %v: shaping (%.3f) worse than dropping (%.3f)",
					depth, drop.Points[i].TokenRate,
					shape.Points[i].Quality, drop.Points[i].Quality)
			}
		}
	}
}

// TestAblationTraceFilePerJob pins -trace on the ablations: every job
// writes its own .ptrace, including cells that differ only in their
// series (drop vs shape, era vs RFC 3042 stack).
func TestAblationTraceFilePerJob(t *testing.T) {
	t.Parallel()
	for _, s := range []Scenario{
		shapeAblation([]units.BitRate{1.9e6}),
		afAblation([]float64{0.45}, []units.BitRate{0.6e6, 1.0e6}),
		tcpAblation([]units.BitRate{1.3e6}),
	} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			tr := &TraceRequest{Dir: t.TempDir(), Config: ptrace.Config{Capacity: 1 << 12, Kinds: ptrace.VerdictKinds()}}
			RunScenarioOpts(s, RunOptions{Parallel: 2, Trace: tr})
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(tr.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(s.Jobs()); len(tr.Files()) != n || len(ents) != n {
				t.Errorf("%d jobs wrote %d traces, %d distinct files: %v", n, len(tr.Files()), len(ents), tr.Files())
			}
		})
	}
}

package experiment

import (
	"reflect"
	"testing"

	"repro/internal/units"
	"repro/internal/video"
)

// The determinism contract of the runner-based experiment layer: for a
// fixed spec and seed, the assembled figure is byte-identical at every
// parallelism level. These tests are the acceptance criterion for
// `-parallel 1` vs `-parallel N`.

// quickQBone is a thinned QBone scenario small enough to run (twice)
// even under -short.
func quickQBone() Scenario {
	spec := figure9Spec()
	spec.Tokens = []units.BitRate{1.05e6}
	spec.Runs = 1
	return spec
}

func TestRunScenarioParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	s := quickQBone()
	serial := RunScenarioOpts(s, RunOptions{Parallel: 1}).Format()
	parallel := RunScenarioOpts(s, RunOptions{Parallel: 8}).Format()
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

func TestRunScenarioParallelMatchesSerialLocal(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	spec := Figure15Spec()
	spec.Tokens = []units.BitRate{1.3e6}
	serial := RunScenarioOpts(spec, RunOptions{Parallel: 1}).Format()
	parallel := RunScenarioOpts(spec, RunOptions{Parallel: 8}).Format()
	if serial != parallel {
		t.Errorf("local testbed parallel output differs from serial:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestRunScenarioParallelMatchesSerialRelative(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	fig13 := figure13Spec()
	// one relative series beside the reference's own
	spec := relativeGrid(fig13.Key, fig13.ID, fig13.Title, video.Dark(), relativeEncRates[1:], []units.BitRate{1.2e6})
	serial := RunScenarioOpts(spec, RunOptions{Parallel: 1}).Format()
	parallel := RunScenarioOpts(spec, RunOptions{Parallel: 8}).Format()
	if serial != parallel {
		t.Errorf("relative parallel output differs from serial:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestJobsAssembleGridShape pins the job-index ↔ grid-cell mapping the
// Assemble implementations rely on: one job per (point, seed), and one
// result per point reaching Assemble.
func TestJobsAssembleGridShape(t *testing.T) {
	spec := Figure7Spec()
	jobs := spec.Jobs()
	want := len(spec.Depths) * len(spec.Tokens)
	if len(jobs) != want*seedRuns {
		t.Fatalf("QBone jobs = %d, want %d", len(jobs), want*seedRuns)
	}
	// Assemble a synthetic result set and check placement.
	results := make([]Point, want)
	for i := range results {
		results[i] = Point{TokenRate: units.BitRate(i)}
	}
	fig := spec.Assemble(results)
	if len(fig.Series) != len(spec.Depths) {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for di, s := range fig.Series {
		for ti, p := range s.Points {
			if int(p.TokenRate) != di*len(spec.Tokens)+ti {
				t.Fatalf("series %d point %d holds result %d — results not collected by index", di, ti, int(p.TokenRate))
			}
		}
	}

	rel, tokens := figure13Spec(), TokenSweep(600, 2100, 150)
	if n := len(rel.Jobs()); n != len(relativeEncRates)*len(tokens)*seedRuns {
		t.Errorf("relative jobs = %d, want %d", n, len(relativeEncRates)*len(tokens)*seedRuns)
	}
	loc := Figure15Spec()
	if n := len(loc.Jobs()); n != len(loc.Depths)*len(loc.Tokens) {
		t.Errorf("local jobs = %d, want %d", n, len(loc.Depths)*len(loc.Tokens))
	}
}

func TestRegistryHasAllFigures(t *testing.T) {
	for _, name := range []string{"fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16"} {
		s := Lookup(name)
		if s == nil {
			t.Errorf("scenario %q not registered", name)
			continue
		}
		if s.Name() != name {
			t.Errorf("scenario %q reports Name %q", name, s.Name())
		}
		if s.Describe() == "" {
			t.Errorf("scenario %q has no description", name)
		}
		if s.Grid().Thin == nil {
			t.Errorf("scenario %q is not Scalable", name)
		}
	}
	if Lookup("no-such-scenario") != nil {
		t.Error("Lookup of unknown name should be nil")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if !naturalLess(names[i-1], names[i]) {
			t.Fatalf("Names not in natural order: %v", names)
		}
	}
}

func TestNaturalLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"fig7", "fig10", true},
		{"fig10", "fig7", false},
		{"fig7", "fig7", false},
		{"abl-af", "fig7", true},
		{"table1", "table2", true},
		{"fig7x", "fig10", false}, // mixed suffix falls back to lexicographic
	}
	for _, c := range cases {
		if got := naturalLess(c.a, c.b); got != c.want {
			t.Errorf("naturalLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate register did not panic")
		}
	}()
	register(Figure7Spec())
}

func TestScaledReturnsThinnedCopy(t *testing.T) {
	spec := Figure7Spec()
	thin := Scaled(spec, 4).(QBoneSpec)
	if len(thin.Tokens) >= len(spec.Tokens) {
		t.Errorf("Scaled did not thin: %d vs %d", len(thin.Tokens), len(spec.Tokens))
	}
	if len(Figure7Spec().Tokens) != len(spec.Tokens) {
		t.Error("Scaled mutated the source spec")
	}
}

// TestSeedFoldIndependentOfParallelism pins the runner's seed fold: a
// point's seeds run as separate jobs, on whichever workers take them,
// and fold in seed order, so the figure and the per-point telemetry do
// not depend on the job-pool size, and Figure.Runs holds one entry per
// grid point, not one per seed.
func TestSeedFoldIndependentOfParallelism(t *testing.T) {
	t.Parallel()
	spec := Figure7Spec()
	spec.Tokens, spec.Depths, spec.Runs = spec.Tokens[:1], spec.Depths[:1], 3
	var ref *Figure
	for _, parallel := range []int{1, 2, 8} {
		fig := RunScenarioOpts(spec, RunOptions{Parallel: parallel})
		if len(fig.Runs) != spec.Grid().Points {
			t.Fatalf("parallel=%d: %d runs filed for %d grid points", parallel, len(fig.Runs), spec.Grid().Points)
		}
		for i := range fig.Runs {
			fig.Runs[i].RunMS = 0
		}
		if ref == nil {
			ref = fig
			continue
		}
		if got, want := fig.Format(), ref.Format(); got != want {
			t.Errorf("parallel=%d: figure diverged from parallel=1:\n%s\nvs\n%s", parallel, got, want)
		}
		if !reflect.DeepEqual(fig.Runs, ref.Runs) {
			t.Errorf("parallel=%d: runs diverged from parallel=1:\n%+v\nvs\n%+v", parallel, fig.Runs, ref.Runs)
		}
	}
}

package experiment

import (
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/video"
)

func reducedNFlow() MultiFlowSpec {
	spec := nflowSweepSpec()
	spec.Ns = []int{1, 2}
	return spec
}

func reducedSchedCompare() SchedCompareSpec {
	spec := SchedCompareSpecDefault()
	spec.N = 2
	spec.Loads = []float64{1.2}
	return spec
}

func TestNFlowScenarioShape(t *testing.T) {
	t.Parallel()
	fig := RunScenarioOpts(reducedNFlow().Grid(), RunOptions{})
	if len(fig.Series) != 2 || fig.Series[0].Label != "mean" || fig.Series[1].Label != "worst" {
		t.Fatalf("series = %+v", fig.Series)
	}
	for si, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %d has %d points, want 2", si, len(s.Points))
		}
	}
	for i, want := range []string{"N=1", "N=2"} {
		p := fig.Series[0].Points[i]
		if p.Label != want {
			t.Errorf("point %d label %q, want %q", i, p.Label, want)
		}
		if len(p.Flows) != i+1 {
			t.Errorf("point %d carries %d flow evals, want %d", i, len(p.Flows), i+1)
		}
		if p.Quality < 0 || p.Quality > 1 {
			t.Errorf("point %d quality %v out of range", i, p.Quality)
		}
		worst := fig.Series[1].Points[i]
		if worst.Quality < p.Quality-1e-9 {
			t.Errorf("point %d: worst quality %v better than mean %v", i, worst.Quality, p.Quality)
		}
	}
	// The figure must render with N labels, not token rates.
	out := fig.Format()
	if !strings.Contains(out, "N=2") {
		t.Errorf("formatted figure lacks flow-count rows:\n%s", out)
	}
}

func TestNFlowDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	spec := reducedNFlow().Grid()
	serial := RunScenarioOpts(spec, RunOptions{Parallel: 1}).Format()
	parallel := RunScenarioOpts(spec, RunOptions{Parallel: 8}).Format()
	if serial != parallel {
		t.Errorf("nflow output depends on parallelism:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestSchedCompareScenarioShape(t *testing.T) {
	t.Parallel()
	fig := RunScenarioOpts(reducedSchedCompare(), RunOptions{})
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 (priority/drr/wfq)", len(fig.Series))
	}
	for i, want := range []string{"priority", "drr", "wfq"} {
		if fig.Series[i].Label != want {
			t.Errorf("series %d label %q, want %q", i, fig.Series[i].Label, want)
		}
		if len(fig.Series[i].Points) != 1 {
			t.Fatalf("series %q has %d points, want 1", want, len(fig.Series[i].Points))
		}
		q := fig.Series[i].Points[0].Quality
		if q < 0 || q > 1 {
			t.Errorf("series %q quality %v out of range", want, q)
		}
	}
	// Under EF-overload cross traffic, strict priority must protect
	// the video at least as well as the share-capped schedulers.
	prio := fig.Series[0].Points[0].Quality
	for _, si := range []int{1, 2} {
		if fig.Series[si].Points[0].Quality+1e-9 < prio {
			t.Errorf("%s quality %v better than priority %v under overload — share cap not binding?",
				fig.Series[si].Label, fig.Series[si].Points[0].Quality, prio)
		}
	}
}

func TestScalingScenariosRegistered(t *testing.T) {
	for _, name := range []string{"nflow", "schedcomp"} {
		s := Lookup(name)
		if s == nil {
			t.Errorf("scenario %q not registered", name)
			continue
		}
		if s.Grid().Thin == nil {
			t.Errorf("scenario %q is not Scalable", name)
		}
	}
	// Scaled must thin interior points and keep endpoints.
	nf := Scaled(nflowSweepSpec().Grid(), 2).Grid().Params.(MultiFlowSpec)
	if len(nf.Ns) >= len(nflowSweepSpec().Ns) || nf.Ns[len(nf.Ns)-1] != 16 {
		t.Errorf("nflow Scaled wrong: %v", nf.Ns)
	}
	sc := Scaled(SchedCompareSpecDefault(), 2).(SchedCompareSpec)
	if sc.Loads[len(sc.Loads)-1] != 2.0 {
		t.Errorf("schedcomp Scaled dropped the overload endpoint: %v", sc.Loads)
	}
}

func TestMultiFlowStaggerDesynchronizes(t *testing.T) {
	t.Parallel()
	// Two flows must not lose frames in lockstep: the staggered starts
	// plus per-flow jitter give each flow its own loss pattern when the
	// policer bites.
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	m := topology.BuildMultiFlow(topology.MultiFlowConfig{
		Seed: 11, Enc: enc, N: 2, TokenRate: 1.05e6, Depth: 3000,
		BottleneckRate: 6e6,
	})
	m.Run()
	if m.Policers[0].Dropped == 0 || m.Policers[1].Dropped == 0 {
		t.Skip("profile did not police at this seed — nothing to compare")
	}
	if m.Policers[0].Dropped == m.Policers[1].Dropped &&
		m.Clients[0].Packets == m.Clients[1].Packets {
		t.Errorf("flows behaved identically (drops %d/%d, packets %d/%d) — stagger ineffective",
			m.Policers[0].Dropped, m.Policers[1].Dropped,
			m.Clients[0].Packets, m.Clients[1].Packets)
	}
}

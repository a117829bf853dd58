package experiment

import (
	"strings"
	"testing"

	"repro/internal/sim"
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
	fig := tableRow("nflow").reference().fig
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

// TestNFlowWideRegistered pins the wide-aggregate scenario's
// registration and its batched, large-N shape.
func TestNFlowWideRegistered(t *testing.T) {
	s := Lookup("nflow-wide")
	if s == nil {
		t.Fatal("nflow-wide not registered")
	}
	spec, ok := s.Grid().Params.(MultiFlowSpec)
	if !ok {
		t.Fatalf("nflow-wide is %T, want MultiFlowSpec", s)
	}
	if !spec.Batch {
		t.Error("nflow-wide is not batched")
	}
	if max := spec.Ns[len(spec.Ns)-1]; max < 256 {
		t.Errorf("nflow-wide tops out at N=%d, want >= 256", max)
	}
	if s.Grid().Thin == nil {
		t.Error("nflow-wide is not Scalable")
	}
	// That the spec's jobs run on the batched source is the settings
	// table's: its nflow-wide row runs on 4 effective shard workers,
	// which only a batched build has.
}

// TestNFlowFleetRegistered pins the fleet scenario's registration and
// shape: six-figure top end, batched + aggregated, shard-capable,
// scalable.
func TestNFlowFleetRegistered(t *testing.T) {
	s := Lookup("nflow-fleet")
	if s == nil {
		t.Fatal("nflow-fleet not registered")
	}
	spec, ok := s.Grid().Params.(FleetSpec)
	if !ok {
		t.Fatalf("nflow-fleet is %T, want FleetSpec", s)
	}
	if max := spec.Ns[len(spec.Ns)-1]; max < 100000 {
		t.Errorf("nflow-fleet tops out at N=%d, want >= 100000", max)
	}
	if len(spec.Classes) < 2 {
		t.Errorf("nflow-fleet has %d classes, want >= 2", len(spec.Classes))
	}
	if !s.Grid().Shards {
		t.Error("nflow-fleet does not support shards")
	}
	if s.Grid().Thin == nil {
		t.Error("nflow-fleet is not Scalable")
	}
}

// TestFleetEventsPerVFlowFall is the scaling smoke the bench CI job
// runs: on a shrunken fleet grid crossing a proportionally shrunken
// bottleneck's knee, simulator events per virtual flow must fall as N
// grows — the sublinearity the aggregated mixture fan-out exists to
// buy (past the knee, dropped packets cost no dequeue events and the
// bottleneck transmits at most a pipe's worth).
func TestFleetEventsPerVFlowFall(t *testing.T) {
	t.Parallel()
	spec := nflowFleetSpec()
	spec.Ns = []int{2000, 8000}
	// Knee at ~4000 flows: ~1000 active × ~1.1 Mbps ≈ 1.1 Gbps.
	spec.BottleneckRate = 1.1e9
	fig := RunScenarioOpts(spec.Grid(), RunOptions{Parallel: 1})
	// The figure rows carry the delivery shortfall; the jobs' run records
	// carry what the simulator did.
	small, large := fig.Series[0].Points[0], fig.Series[0].Points[1]
	smallRun, largeRun := fig.Runs[0], fig.Runs[1]
	if smallRun.VFlows != 2000 || largeRun.VFlows != 8000 {
		t.Fatalf("unexpected vflow counts: %d, %d", smallRun.VFlows, largeRun.VFlows)
	}
	evS := float64(smallRun.Events) / float64(smallRun.VFlows)
	evL := float64(largeRun.Events) / float64(largeRun.VFlows)
	if evL >= evS {
		t.Errorf("events per vflow grew with N: %.1f at N=%d vs %.1f at N=%d",
			evS, smallRun.VFlows, evL, largeRun.VFlows)
	}
	// Past the knee the large point must actually be lossy — otherwise
	// the grid is not crossing the provisioning knee it claims to.
	if large.FrameLoss <= small.FrameLoss || large.FrameLoss <= 0.01 {
		t.Errorf("delivery shortfall did not rise past the knee: %.4f at N=%d vs %.4f at N=%d",
			small.FrameLoss, smallRun.VFlows, large.FrameLoss, largeRun.VFlows)
	}
	// Fleet points run width-adaptive and report queue telemetry: the
	// final width is the policy's converged choice, and the denser
	// point must not have converged wider than the sparser one.
	if smallRun.QWidth <= 0 || largeRun.QWidth <= 0 || smallRun.QRebases == 0 {
		t.Errorf("queue telemetry missing: QWidth %v/%v, QRebases %d",
			smallRun.QWidth, largeRun.QWidth, smallRun.QRebases)
	}
	if largeRun.QWidth > smallRun.QWidth {
		t.Errorf("adaptive width grew with density: %v at N=%d vs %v at N=%d",
			smallRun.QWidth, smallRun.VFlows, largeRun.QWidth, largeRun.VFlows)
	}
	// The dense point must have converged below the width every
	// simulator starts at — the premise of leaving the calendar geometry
	// to the simulator.
	if start := sim.New(0).QueueStats().Width; largeRun.QWidth >= start {
		t.Errorf("adaptive width did not narrow on the dense point: %v (started at %v)", largeRun.QWidth, start)
	}
}

package experiment

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The mixture differential harness: the K-class generalization of
// batcheq_test.go. A two-class mixture run on the batched
// BatchedMixture fan-out must be byte-identical to the same mixture
// built from per-flow servers — and the sharded mixture pipeline must
// be byte-identical to the serial one — so everything the batcheq and
// shardeq harnesses pin for homogeneous populations carries over to
// mixtures. A third suite checks that aggregated-stats mode reports
// exactly what per-flow receivers measure.

// mixClasses is the two-class population the tests run: n "viewers"
// (Lost @ 1.0 Mbps) and n "elephants" (Dark @ 1.5 Mbps) with distinct
// policing, phases and staggers — every per-class knob differs so a
// class-mixup cannot cancel out.
func mixClasses(n int, truncate units.Time) []topology.FlowClass {
	return []topology.FlowClass{
		{Name: "viewers", Enc: video.CachedCBR(video.Lost(), 1.0e6), N: n,
			TokenRate: 1.3e6, Truncate: truncate,
			Stagger: 331 * units.Millisecond},
		{Name: "elephants", Enc: video.CachedCBR(video.Dark(), 1.5e6), N: n,
			TokenRate: 1.95e6, Truncate: truncate,
			Phase: 170 * units.Millisecond, Stagger: 217 * units.Millisecond},
	}
}

// runMixturePoint builds and runs one two-class mixture (n flows per
// class) against a 12 Mbps priority bottleneck — provisioned for
// roughly n=2, so n=4 and n=8 overload it and exercise queue drops.
func runMixturePoint(n int, batch bool, shards int, aggregate bool,
	truncate units.Time, rec *ptrace.Recorder) *topology.MultiFlow {
	m := topology.BuildMultiFlow(topology.MultiFlowConfig{
		Seed: DefaultSeed, Classes: mixClasses(n, truncate),
		Depth: 4500, BottleneckRate: 12e6, Sched: topology.PriorityBottleneck,
		BELoad: 0.15, Batch: batch, Shards: shards, AggregateStats: aggregate,
		Trace: rec,
	})
	m.Run()
	return m
}

// mixEnc maps a global flow index of the test mixture to its class
// encoding (class-major layout: viewers first).
func mixEnc(g, n int) *video.Encoding {
	if g < n {
		return video.CachedCBR(video.Lost(), 1.0e6)
	}
	return video.CachedCBR(video.Dark(), 1.5e6)
}

// diffMixture fails the test wherever two mixture runs differ in any
// downstream-observable way: per-flow delivered counts, per-flow
// policer verdicts, per-flow evaluations, bottleneck totals.
func diffMixture(t *testing.T, labelA, labelB string, a, b *topology.MultiFlow, n int) {
	t.Helper()
	for i := range a.Clients {
		if a.Clients[i].Packets != b.Clients[i].Packets ||
			a.Clients[i].PacketsBytes != b.Clients[i].PacketsBytes {
			t.Errorf("flow %d delivered: %s %d pkts/%d B, %s %d pkts/%d B",
				i, labelA, a.Clients[i].Packets, a.Clients[i].PacketsBytes,
				labelB, b.Clients[i].Packets, b.Clients[i].PacketsBytes)
		}
		enc := mixEnc(i, n)
		ea := Evaluate(a.Clients[i].Trace(), enc, enc)
		eb := Evaluate(b.Clients[i].Trace(), enc, enc)
		if ea != eb {
			t.Errorf("flow %d evaluation diverged:\n%s %+v\n%s %+v", i, labelA, ea, labelB, eb)
		}
	}
	for i := range a.Policers {
		pa, pb := a.Policers[i], b.Policers[i]
		if pa.Passed != pb.Passed || pa.Dropped != pb.Dropped ||
			pa.PassedBytes != pb.PassedBytes || pa.DroppedBytes != pb.DroppedBytes {
			t.Errorf("flow %d policer: %s pass=%d drop=%d (%d/%d B), %s pass=%d drop=%d (%d/%d B)",
				i, labelA, pa.Passed, pa.Dropped, pa.PassedBytes, pa.DroppedBytes,
				labelB, pb.Passed, pb.Dropped, pb.PassedBytes, pb.DroppedBytes)
		}
	}
	if a.Bottleneck.Sent != b.Bottleneck.Sent ||
		a.Bottleneck.SentBytes != b.Bottleneck.SentBytes {
		t.Errorf("bottleneck: %s %d pkts/%d B, %s %d pkts/%d B",
			labelA, a.Bottleneck.Sent, a.Bottleneck.SentBytes,
			labelB, b.Bottleneck.Sent, b.Bottleneck.SentBytes)
	}
}

// TestMixtureBatchedEquivalence pins mixture-batched == unbatched
// byte-identically at two classes × N ∈ {4, 8} flows per class.
func TestMixtureBatchedEquivalence(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 8} {
		n := n
		t.Run(map[int]string{4: "N=4", 8: "N=8"}[n], func(t *testing.T) {
			t.Parallel()
			mu := runMixturePoint(n, false, 0, false, 0, nil)
			mb := runMixturePoint(n, true, 0, false, 0, nil)
			diffMixture(t, "unbatched", "batched", mu, mb, n)
			if mb.Sim.Fired() >= mu.Sim.Fired() {
				t.Errorf("batched mixture fired %d events, unbatched %d — no source-side saving",
					mb.Sim.Fired(), mu.Sim.Fired())
			}
			// Every virtual flow emitted its full class schedule.
			for g, sent := range mb.Mixture.Sent {
				want := len(mb.Mixture.Classes[mb.Mixture.ClassOf(g)].Sched.Entries)
				if sent != want {
					t.Errorf("virtual flow %d emitted %d of %d scheduled packets", g, sent, want)
				}
			}
		})
	}
}

// TestMixtureWideDensityBatchedEquivalence pins mixture-batched ==
// unbatched at the wide configuration's density — 32 flows 53 ms apart
// into a 24 Mbps bottleneck — where same-nanosecond ties between a
// delivery and a native border event actually occur. It holds only
// because populations this small arm one delivery timer per packet at
// draw time (flowbatch's armPerPacketMax): forced onto the single
// timer, this point's delivered counts diverge in most flows, and the
// homogeneous N=32 wide point loses one packet in each of two.
func TestMixtureWideDensityBatchedEquivalence(t *testing.T) {
	t.Parallel()
	const n = 16
	run := func(batch bool) *topology.MultiFlow {
		classes := mixClasses(n, 0)
		classes[0].Stagger, classes[1].Stagger = 53*units.Millisecond, 53*units.Millisecond
		m := topology.BuildMultiFlow(topology.MultiFlowConfig{
			Seed: DefaultSeed, Classes: classes,
			Depth: 4500, BottleneckRate: 24e6, Sched: topology.PriorityBottleneck,
			BELoad: 0.15, Batch: batch,
		})
		m.Run()
		return m
	}
	diffMixture(t, "unbatched", "batched", run(false), run(true), n)
}

// TestMixtureShardedEquivalence pins sharded mixture == serial mixture
// byte-identically: on the batched fan-out pipeline at several shard
// counts, and on an unbatched build, which has nothing to partition and
// so runs serially with one effective worker.
func TestMixtureShardedEquivalence(t *testing.T) {
	t.Parallel()
	const n = 4
	t.Run("batched", func(t *testing.T) {
		t.Parallel()
		serial := runMixturePoint(n, true, 0, false, 0, nil)
		for _, shards := range []int{2, 5} {
			sharded := runMixturePoint(n, true, shards, false, 0, nil)
			if sharded.Stats.Shards < 2 {
				t.Fatalf("shards=%d ran with %d shard workers", shards, sharded.Stats.Shards)
			}
			diffMixture(t, "serial", "sharded", serial, sharded, n)
		}
	})
	t.Run("unbatched", func(t *testing.T) {
		t.Parallel()
		serial := runMixturePoint(n, false, 0, false, 0, nil)
		sharded := runMixturePoint(n, false, 3, false, 0, nil)
		if sharded.Stats.Shards != 1 {
			t.Fatalf("unbatched Shards=3 run used %d shard workers, want 1", sharded.Stats.Shards)
		}
		diffMixture(t, "serial", "sharded", serial, sharded, n)
	})
}

// TestMixtureAggregatedMatchesExact checks the aggregated-stats mode
// against per-flow receivers on the identical simulation: per-class
// delivered packet/byte counts must match the sums of the exact
// clients', the streaming delay moments must match the trace-derived
// per-packet delays to floating-point accuracy, and the P² sketch
// quantiles must land within the documented error bound of the exact
// order statistics.
func TestMixtureAggregatedMatchesExact(t *testing.T) {
	t.Parallel()
	const n = 4
	const truncate = 2 * units.Second
	// The exact run records every client delivery (with its one-way
	// delay) into a generously sized recorder; truncated schedules keep
	// the event volume far below capacity.
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 18})
	exact := runMixturePoint(n, true, 0, false, truncate, rec)
	agg := runMixturePoint(n, true, 0, true, truncate, nil)

	if len(agg.Aggregates) != 2 {
		t.Fatalf("aggregated run has %d aggregates, want 2", len(agg.Aggregates))
	}
	// Tracing and receiver choice are both pure observation: the wire
	// side of the two runs must already be identical.
	if exact.Bottleneck.Sent != agg.Bottleneck.Sent {
		t.Fatalf("bottleneck diverged between exact (%d) and aggregated (%d) runs — receiver choice leaked upstream",
			exact.Bottleneck.Sent, agg.Bottleneck.Sent)
	}

	// Counts: per-class aggregate totals == sums over the class's exact
	// per-flow clients.
	for ci := 0; ci < 2; ci++ {
		var pkts, bytes int64
		for g := ci * n; g < (ci+1)*n; g++ {
			pkts += int64(exact.Clients[g].Packets)
			bytes += exact.Clients[g].PacketsBytes
		}
		a := agg.Aggregates[ci]
		if a.Packets != pkts || a.Bytes != bytes {
			t.Errorf("class %d: aggregate %d pkts/%d B, exact clients %d pkts/%d B",
				ci, a.Packets, a.Bytes, pkts, bytes)
		}
		if a.Delay.N() != pkts {
			t.Errorf("class %d: moments saw %d samples, want %d", ci, a.Delay.N(), pkts)
		}
	}

	// Delays: reconstruct the exact per-class delay samples from the
	// exact run's Deliver events.
	delays := [2][]float64{}
	for _, ev := range rec.Events() {
		if ev.Kind != ptrace.Deliver {
			continue
		}
		g := int(ev.Flow - topology.VideoFlow)
		if g < 0 || g >= 2*n {
			continue
		}
		delays[g/n] = append(delays[g/n], ev.Delay.Seconds())
	}
	if rec.Overwritten() > 0 {
		t.Fatalf("recorder overwrote %d events; the exact-delay reconstruction is incomplete", rec.Overwritten())
	}
	for ci := 0; ci < 2; ci++ {
		a := agg.Aggregates[ci]
		ds := delays[ci]
		if int64(len(ds)) != a.Delay.N() {
			t.Fatalf("class %d: trace has %d deliveries, aggregate saw %d", ci, len(ds), a.Delay.N())
		}
		var sum, sumSq, min, max float64
		min, max = math.Inf(1), math.Inf(-1)
		for _, d := range ds {
			sum += d
			sumSq += d * d
			min = math.Min(min, d)
			max = math.Max(max, d)
		}
		mean := sum / float64(len(ds))
		variance := sumSq/float64(len(ds)) - mean*mean
		if rel := math.Abs(a.Delay.Mean()-mean) / mean; rel > 1e-9 {
			t.Errorf("class %d mean: aggregate %v, exact %v (rel err %g)", ci, a.Delay.Mean(), mean, rel)
		}
		if rel := math.Abs(a.Delay.Var()-variance) / variance; rel > 1e-6 {
			t.Errorf("class %d variance: aggregate %v, exact %v (rel err %g)", ci, a.Delay.Var(), variance, rel)
		}
		if a.Delay.Min() != min || a.Delay.Max() != max {
			t.Errorf("class %d extremes: aggregate [%v, %v], exact [%v, %v]",
				ci, a.Delay.Min(), a.Delay.Max(), min, max)
		}
		// Sketch quantiles against exact order statistics, within a
		// tolerance proportional to the sample range (the P² error
		// model; the moments tests pin the same bound on synthetic
		// streams).
		sort.Float64s(ds)
		tol := 0.05 * (max - min)
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.50, a.DelayP50.Value()}, {0.95, a.DelayP95.Value()}, {0.99, a.DelayP99.Value()}} {
			exactQ := ds[int(q.p*float64(len(ds)-1))]
			if math.Abs(q.got-exactQ) > tol {
				t.Errorf("class %d p%02.0f: sketch %v, exact %v (tol %v)", ci, q.p*100, q.got, exactQ, tol)
			}
		}
	}
}

// TestNFlowFleetRegistered pins the fleet scenario's registration and
// shape: six-figure top end, batched + aggregated, shard-capable,
// scalable.
func TestNFlowFleetRegistered(t *testing.T) {
	s := Lookup("nflow-fleet")
	if s == nil {
		t.Fatal("nflow-fleet not registered")
	}
	spec, ok := s.(FleetSpec)
	if !ok {
		t.Fatalf("nflow-fleet is %T, want FleetSpec", s)
	}
	if max := spec.Ns[len(spec.Ns)-1]; max < 100000 {
		t.Errorf("nflow-fleet tops out at N=%d, want >= 100000", max)
	}
	if len(spec.Classes) < 2 {
		t.Errorf("nflow-fleet has %d classes, want >= 2", len(spec.Classes))
	}
	if !SupportsSharding(s) {
		t.Error("nflow-fleet does not support shards")
	}
	if _, ok := s.(Scalable); !ok {
		t.Error("nflow-fleet is not Scalable")
	}
	// The PR 7 per-N widthFor heuristic is retired: fleet jobs leave
	// the config width zero so the simulator's density-adaptive policy
	// picks the calendar geometry per point (pinned by the QWidth
	// telemetry check in TestFleetEventsPerVFlowFall).
}

// TestFleetEventsPerVFlowFall is the scaling smoke the bench CI job
// runs: on a shrunken fleet grid crossing a proportionally shrunken
// bottleneck's knee, simulator events per virtual flow must fall as N
// grows — the sublinearity the aggregated mixture fan-out exists to
// buy (past the knee, dropped packets cost no dequeue events and the
// bottleneck transmits at most a pipe's worth).
func TestFleetEventsPerVFlowFall(t *testing.T) {
	t.Parallel()
	spec := NFlowFleetSpec()
	spec.Ns = []int{2000, 8000}
	// Knee at ~4000 flows: ~1000 active × ~1.1 Mbps ≈ 1.1 Gbps.
	spec.BottleneckRate = 1.1e9
	fig := RunScenarioOpts(spec, RunOptions{Parallel: 1})
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

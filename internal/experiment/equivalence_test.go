package experiment

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The equivalence harness: every way of running a point gives the
// result the plain way gives. TestRunSettingsEquivalence checks the
// execution settings (job-pool size, shard count, tracing) on a reduced
// grid of each scenario family. The multi-flow rows check one point run
// batched against unbatched, or at one shard count against another:
// per flow the delivered packets and bytes, the policer verdicts and
// the quality figures must agree, and so must the bottleneck's totals;
// two runs of one build (two shard counts) must also write the same
// .ptrace.
//
// Runs are deterministic. Every batched point here has at most 1,024
// flows, so it runs on the fan-out pipeline at every shard count, and
// the shard count moves no decision: the shard rows hold at every seed
// they run. Batched and unbatched runs differ only in how they break a
// same-instant tie between two virtual flows: the pipeline orders
// arrivals and deliveries by (time, flow), where N real jitter
// elements deliver in event-scheduling order (package flowbatch states
// the pipeline's whole delivery order). The batched rows run grids on
// which no such tie is realized, so every pair is identical;
// TestBatchedWideTieDivergence pins the first wide point where one is.
// Each point is simulated once per test binary, and the rows that
// compare against it share that run and only read it.

// mfPoint is one multi-flow grid point: n flows of the nflow or the
// nflow-wide scenario, or n flows per class of the two-class mixture
// ("mix"), or of the mixture at the wide density ("mix-dense"), at seed
// (0: DefaultSeed, the seed of all four). aggregate and truncate apply
// to the mixtures only.
type mfPoint struct {
	pop       string // "nflow", "nflow-wide", "mix" or "mix-dense"
	n         int
	seed      uint64
	batch     bool
	shards    int
	aggregate bool
	truncate  units.Time
}

// mixClasses is the two-class population of the mixtures: n "viewers"
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

// config is the point's topology. The mixture's 12 Mbps priority
// bottleneck is provisioned for roughly n = 2, so n = 4 and n = 8
// overload it and exercise queue drops; at the wide density both
// classes start 53 ms apart into 24 Mbps.
func (p mfPoint) config() topology.MultiFlowConfig {
	seed := p.seedOrDefault()
	if p.pop == "nflow" || p.pop == "nflow-wide" {
		spec := nflowSweepSpec()
		if p.pop == "nflow-wide" {
			spec = nflowWideSpec()
		}
		return topology.MultiFlowConfig{
			Seed: seed, Enc: video.CachedCBR(spec.Clip, spec.EncRate), N: p.n,
			TokenRate: spec.TokenRate, Depth: spec.Depth,
			BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
			BELoad: spec.BELoad, Batch: p.batch, Stagger: spec.Stagger, Shards: p.shards,
		}
	}
	cfg := topology.MultiFlowConfig{
		Seed: seed, Classes: mixClasses(p.n, p.truncate),
		Depth: 4500, BottleneckRate: 12e6, Sched: topology.PriorityBottleneck,
		BELoad: 0.15, Batch: p.batch, Shards: p.shards, AggregateStats: p.aggregate,
	}
	if p.pop == "mix-dense" {
		cfg.Classes[0].Stagger, cfg.Classes[1].Stagger = 53*units.Millisecond, 53*units.Millisecond
		cfg.BottleneckRate = 24e6
	}
	return cfg
}

// seedOrDefault is the seed the point runs at.
func (p mfPoint) seedOrDefault() uint64 {
	if p.seed == 0 {
		return DefaultSeed
	}
	return p.seed
}

// run builds and runs the point, recording into rec (nil records
// nothing): the harness's one multi-flow point runner.
func (p mfPoint) run(rec *ptrace.Recorder) *topology.MultiFlow {
	cfg := p.config()
	cfg.Trace = rec
	m := topology.BuildMultiFlow(cfg)
	m.Run()
	return m
}

// flowOutcome is what one flow's receiver and policer saw.
type flowOutcome struct {
	Packets, Passed, Dropped         int
	Bytes, PassedBytes, DroppedBytes int64
	Eval                             Evaluation
}

// outcome is a run of a point reduced to plain values: what it shows
// downstream, the simulator events it fired, its effective shard
// count, the batched flows that emitted less than their schedule, and
// its verdict trace.
type outcome struct {
	flows     []flowOutcome
	sent      int
	sentBytes int64
	fired     uint64
	shards    int
	unsent    []string
	trace     []byte
}

func (p mfPoint) outcome() *outcome {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 16, Kinds: ptrace.VerdictKinds()})
	m := p.run(rec)
	o := &outcome{sent: m.Bottleneck.Sent, sentBytes: m.Bottleneck.SentBytes,
		fired: m.Sim.Fired(), shards: m.Stats.Shards}
	cfg := p.config()
	for g, cl := range m.Clients {
		enc := cfg.Enc
		if len(cfg.Classes) > 0 {
			enc = cfg.Classes[g/p.n].Enc
		}
		pol := m.Policers[g]
		o.flows = append(o.flows, flowOutcome{
			Packets: cl.Packets, Bytes: cl.PacketsBytes,
			Passed: pol.Passed, Dropped: pol.Dropped, PassedBytes: pol.PassedBytes, DroppedBytes: pol.DroppedBytes,
			Eval: Evaluate(cl.Trace(), enc, enc),
		})
	}
	if m.Mixture != nil {
		g := 0
		for _, c := range m.Mixture.Classes {
			for j := 0; j < c.N; j++ {
				if sent, want := int(m.Mixture.Sent[g]), len(c.Sched.Entries); sent != want {
					o.unsent = append(o.unsent, fmt.Sprintf("virtual flow %d emitted %d of %d scheduled packets", g, sent, want))
				}
				g++
			}
		}
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	o.trace = buf.Bytes()
	return o
}

// outcomes memoizes every point the test binary simulates.
var outcomes sync.Map // mfPoint -> sync.OnceValue of its outcome

// simulated is p's outcome, simulated on the binary's first request.
func simulated(p mfPoint) *outcome {
	v, _ := outcomes.LoadOrStore(p, sync.OnceValue(p.outcome))
	return v.(func() *outcome)()
}

// diffOutcomes fails t wherever got differs from ref downstream. Runs
// of one build (sameBuild: they differ in shard count only) must also
// have written the same trace.
func diffOutcomes(t *testing.T, refName, gotName string, ref, got *outcome, sameBuild bool) {
	t.Helper()
	if len(ref.flows) != len(got.flows) {
		t.Fatalf("%s has %d flows, %s %d", refName, len(ref.flows), gotName, len(got.flows))
	}
	for i, r := range ref.flows {
		g := got.flows[i]
		if r.Packets != g.Packets || r.Bytes != g.Bytes {
			t.Errorf("flow %d delivered: %s %d pkts/%d B, %s %d pkts/%d B",
				i, refName, r.Packets, r.Bytes, gotName, g.Packets, g.Bytes)
		}
		if r.Passed != g.Passed || r.Dropped != g.Dropped ||
			r.PassedBytes != g.PassedBytes || r.DroppedBytes != g.DroppedBytes {
			t.Errorf("flow %d policer: %s pass=%d drop=%d (%d/%d B), %s pass=%d drop=%d (%d/%d B)",
				i, refName, r.Passed, r.Dropped, r.PassedBytes, r.DroppedBytes,
				gotName, g.Passed, g.Dropped, g.PassedBytes, g.DroppedBytes)
		}
		if r.Eval != g.Eval {
			t.Errorf("flow %d evaluation diverged:\n%s %+v\n%s %+v", i, refName, r.Eval, gotName, g.Eval)
		}
	}
	if ref.sent != got.sent || ref.sentBytes != got.sentBytes {
		t.Errorf("bottleneck: %s %d pkts/%d B, %s %d pkts/%d B",
			refName, ref.sent, ref.sentBytes, gotName, got.sent, got.sentBytes)
	}
	if sameBuild && !bytes.Equal(ref.trace, got.trace) {
		t.Errorf(".ptrace captures differ: %s %d bytes, %s %d bytes", refName, len(ref.trace), gotName, len(got.trace))
	}
}

// mfRow compares a point with itself at each listed shard count or,
// when shards is empty, unbatched with batched, at the point's seed and
// at each of seeds. test is the test function that runs the row, name
// its subtest ("" runs it inline).
type mfRow struct {
	test, name string
	ref        mfPoint
	shards     []int
	seeds      []uint64
	long       bool // skipped under -short
}

// invarianceSeeds are the seeds, besides DefaultSeed (2001), at which
// the batched shard-count rows run: 117 is the seed at which the
// serial walk once delivered the 320-flow wide-batched workload
// differently from the pipeline.
var invarianceSeeds = []uint64{7, 117}

// mfRows is the multi-flow table.
var mfRows = []mfRow{
	// Batched ≡ unbatched on nflow, nflow-wide and the mixture at both
	// densities. The wide density realizes ties between a delivery and
	// a border event, and batched runs match because the pipeline
	// injects a delivery before the border events of its instant: the
	// serial walk's one delivery timer, which orders such a tie by event
	// sequence, made the dense mixture diverge in most flows and the
	// homogeneous N=32 wide point lose one packet in each of two.
	{test: "TestBatchedNFlowEquivalence", name: "N=2", ref: mfPoint{pop: "nflow", n: 2}},
	{test: "TestBatchedNFlowEquivalence", name: "N=4", ref: mfPoint{pop: "nflow", n: 4}},
	{test: "TestBatchedNFlowEquivalence", name: "N=8", ref: mfPoint{pop: "nflow", n: 8}},
	{test: "TestBatchedWideConfigEquivalence", name: "N=4", ref: mfPoint{pop: "nflow-wide", n: 4}},
	{test: "TestBatchedWideConfigEquivalence", name: "N=16", ref: mfPoint{pop: "nflow-wide", n: 16}},
	{test: "TestBatchedWideConfigEquivalence", name: "N=32", ref: mfPoint{pop: "nflow-wide", n: 32}},
	{test: "TestMixtureBatchedEquivalence", name: "N=4", ref: mfPoint{pop: "mix", n: 4}},
	{test: "TestMixtureBatchedEquivalence", name: "N=8", ref: mfPoint{pop: "mix", n: 8}},
	{test: "TestMixtureWideDensityBatchedEquivalence", ref: mfPoint{pop: "mix-dense", n: 16}},

	// Shard-count invariance: on the batched pipeline, whose reference
	// runs one shard worker, at several shard counts and (on the N=16
	// wide point and the batched mixture) at three seeds, and on
	// unbatched builds, which have nothing to partition and run
	// serially on one effective worker.
	{test: "TestShardedNFlowEquivalence", name: "N=3", ref: mfPoint{pop: "nflow", n: 3}, shards: []int{4}},
	{test: "TestShardedNFlowEquivalence", name: "N=6", ref: mfPoint{pop: "nflow", n: 6}, shards: []int{4}},
	{test: "TestShardedNFlowWideEquivalence", name: "N=16", ref: mfPoint{pop: "nflow-wide", n: 16, batch: true}, shards: []int{2, 4, 8}, seeds: invarianceSeeds},
	{test: "TestShardedNFlowWideEquivalence", name: "N=64", ref: mfPoint{pop: "nflow-wide", n: 64, batch: true}, shards: []int{2, 4, 8}, long: true},
	{test: "TestMixtureShardedEquivalence", name: "batched", ref: mfPoint{pop: "mix", n: 4, batch: true}, shards: []int{2, 5}, seeds: invarianceSeeds},
	{test: "TestMixtureShardedEquivalence", name: "unbatched", ref: mfPoint{pop: "mix", n: 4}, shards: []int{3}},
}

// runMFRows runs the calling test's rows. A batched run must also fire
// fewer events than the unbatched one and emit every virtual flow's
// whole schedule; every run reports its effective shard count,
// min(shards, flows) on the batched pipeline and 1 otherwise.
func runMFRows(t *testing.T) {
	t.Parallel()
	for _, r := range mfRows {
		if r.test != t.Name() {
			continue
		}
		r := r
		check := func(t *testing.T, pt mfPoint) {
			ref := simulated(pt)
			if len(r.shards) == 0 {
				b := pt
				b.batch = true
				got := simulated(b)
				diffOutcomes(t, "unbatched", "batched", ref, got, false)
				if got.fired >= ref.fired {
					t.Errorf("batched run fired %d events, unbatched %d — no source-side saving", got.fired, ref.fired)
				}
				for _, u := range got.unsent {
					t.Error(u)
				}
				if got.shards != 1 || ref.shards != 1 {
					t.Errorf("default runs report %d (unbatched) and %d (batched) shard workers, want 1", ref.shards, got.shards)
				}
				return
			}
			for _, shards := range r.shards {
				p := pt
				p.shards = shards
				got := simulated(p)
				label := fmt.Sprintf("seed %d shards=%d", pt.seedOrDefault(), shards)
				diffOutcomes(t, "default", label, ref, got, true)
				want := 1
				if p.batch {
					want = min(shards, len(ref.flows))
				}
				if got.shards != want {
					t.Errorf("%s: effective shard workers %d, want %d", label, got.shards, want)
				}
			}
		}
		checkSeeds := func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("large run; run without -short")
			}
			check(t, r.ref)
			for _, seed := range r.seeds {
				pt := r.ref
				pt.seed = seed
				check(t, pt)
			}
		}
		if r.name == "" {
			checkSeeds(t)
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			checkSeeds(t)
		})
	}
}

func TestBatchedNFlowEquivalence(t *testing.T)              { runMFRows(t) }
func TestBatchedWideConfigEquivalence(t *testing.T)         { runMFRows(t) }
func TestMixtureBatchedEquivalence(t *testing.T)            { runMFRows(t) }
func TestMixtureWideDensityBatchedEquivalence(t *testing.T) { runMFRows(t) }
func TestShardedNFlowEquivalence(t *testing.T)              { runMFRows(t) }
func TestShardedNFlowWideEquivalence(t *testing.T)          { runMFRows(t) }
func TestMixtureShardedEquivalence(t *testing.T)            { runMFRows(t) }

// TestBatchedWideTieDivergence turns the documented large-N divergence
// from prose into a regression pin. On the wide config with the default
// seed, N=128 is the first scanned grid point where a tie between two
// virtual flows is realized and matters: the bottleneck totals diverge
// (by a dozen packets out of ~192k). N=96 — also past the N ≤ 32 exactness rows —
// still matches exactly. Both facts are deterministic given the seed;
// if either flips, the equivalence boundary documented in the flowbatch
// package comment has moved and the docs (and possibly the row range)
// need re-deriving.
func TestBatchedWideTieDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("unbatched N=128 wide run is slow; run without -short")
	}
	t.Parallel()
	// No other row reads these points, and only their bottlenecks
	// matter: run them bare.
	for _, c := range []struct {
		n     int
		equal bool
	}{{96, true}, {128, false}} {
		mu := mfPoint{pop: "nflow-wide", n: c.n}.run(nil).Bottleneck
		mb := mfPoint{pop: "nflow-wide", n: c.n, batch: true}.run(nil).Bottleneck
		switch equal := mu.Sent == mb.Sent && mu.SentBytes == mb.SentBytes; {
		case c.equal && !equal:
			t.Errorf("N=%d diverged (%d/%d vs %d/%d pkts/B) — exactness boundary moved below the documented N=128",
				c.n, mu.Sent, mu.SentBytes, mb.Sent, mb.SentBytes)
		case !c.equal && equal:
			t.Errorf("N=%d stayed bit-equal (%d pkts/%d B) — the documented tie divergence no longer reproduces; re-derive the boundary",
				c.n, mu.Sent, mu.SentBytes)
		}
	}
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
	exactPt := mfPoint{pop: "mix", n: n, batch: true, truncate: 2 * units.Second}
	aggPt := exactPt
	aggPt.aggregate = true
	// The exact run records every client delivery (with its one-way
	// delay) into a generously sized recorder; truncated schedules keep
	// the event volume far below capacity.
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 18})
	exact := exactPt.run(rec)
	agg := aggPt.run(nil)

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
	for _, ev := range rec.Data().Events {
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
		sd := a.Delay.Stddev()
		if rel := math.Abs(sd*sd-variance) / variance; rel > 1e-6 {
			t.Errorf("class %d variance: aggregate %v, exact %v (rel err %g)", ci, sd*sd, variance, rel)
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

// A settingsRow is one reduced grid of the figure-level table, and its
// reference run: one worker, no shards, no trace. Shape and golden
// tests that read the same grid read the reference too.
type settingsRow struct {
	s Scenario
	// parallel lists the job-pool sizes the row is run at.
	parallel []int
	// shards is the effective shard count each job reports when asked
	// for 4; every job of the reference reports min(shards, 1).
	shards int
	// inJob names the test that runs the row's in-job check, when that
	// is not the table.
	inJob string
	once  sync.Once
	ref   *capture
}

// capture is one run of a scenario: the figure, and every job's Point
// and RunStats in job order.
type capture struct {
	fig    *Figure
	points []Point
	runs   []RunStats
}

// captureRun runs s's grid under opts, keeping each job's Point and
// RunStats (job i is point i/seeds at seed Seed + i%seeds).
func captureRun(s Scenario, opts RunOptions) *capture {
	g := *s.Grid()
	seeds := g.seeds()
	c := &capture{points: make([]Point, g.Points*seeds), runs: make([]RunStats, g.Points*seeds)}
	run := g.Run
	g.Run = func(ctx *Ctx, i int, seed uint64) Point {
		p := run(ctx, i, seed)
		j := i*seeds + int(seed-g.Seed)
		c.points[j], c.runs[j] = p, ctx.Run
		return p
	}
	c.fig = RunScenarioOpts(&g, opts)
	return c
}

// reference is the row's reference run, simulated on first use; read only.
func (r *settingsRow) reference() *capture {
	r.once.Do(func() { r.ref = captureRun(r.s, RunOptions{Parallel: 1}) })
	return r.ref
}

// relativeRowRates are the encodings of the table's relative row.
var relativeRowRates = relativeEncRates[1:]

// settingsRows is the figure-level table: one scenario of each
// multi-job family and four ablations, whose Points carry their own
// columns (EF delay statistics, srTCM colour counts, the TCP stack
// series).
var settingsRows = sync.OnceValue(func() []*settingsRow {
	// One token and one depth at three seeds: the runner's seed fold.
	fig7 := Figure7Spec()
	fig7.Tokens, fig7.Depths, fig7.Runs = fig7.Tokens[:1], fig7.Depths[:1], 3
	fig9 := figure9Spec()
	fig9.Tokens, fig9.Runs = Scale(fig9.Tokens, len(fig9.Tokens)), 1
	fig14 := figure14Spec()
	fig15 := Figure15Spec()
	fig15.Tokens = Scale(fig15.Tokens, len(fig15.Tokens))
	// Token rates either side of the stream's cap: the first points thin
	// most of the clip at the server, the last deliver it whole, so the
	// lent trace and message list are outgrown along the sweep.
	tcp := Figure15Spec()
	tcp.Key, tcp.UseTCP = "fig15-tcp", true
	tcp.Tokens = []units.BitRate{500e3, 900e3, 1300e3, 2500e3}
	tcp.Depths = tcp.Depths[:1]
	wide := nflowWideSpec()
	wide.Ns = []int{4, 8}
	fleet := nflowFleetSpec()
	fleet.Ns = []int{1000, 2000}
	fleet.BottleneckRate = 0.5e9 // knee between the two points
	return []*settingsRow{
		{s: fig7, parallel: []int{2, 8}},
		{s: fig9}, // job pools: TestRunScenarioParallelMatchesSerial (8), TestDeterministicFigures (1)
		{s: relativeGrid(fig14.Key, fig14.ID, fig14.Title, video.Lost(), relativeRowRates, []units.BitRate{900 * units.Kbps}), parallel: []int{8}},
		{s: fig15, parallel: []int{8}},
		{s: tcp, parallel: []int{2}},
		{s: reducedNFlow().Grid(), parallel: []int{8}, shards: 1},
		{s: wide.Grid(), parallel: []int{2}, shards: 4, inJob: "TestShardsKnobReachesJobs"},
		{s: fleet.Grid(), parallel: []int{2}, shards: 4},
		{s: reducedTandem().Grid(), parallel: []int{2}, shards: 1, inJob: "TestShardedTandemEquivalence"},
		{s: efServiceAblation([]float64{0.02, 0.8}), parallel: []int{2}},
		{s: afAblation([]float64{0.75}, []units.BitRate{0.6e6, 1.4e6}), parallel: []int{2}},
		{s: tcpAblation(TokenSweep(1300, 2100, 800)), parallel: []int{2}},
	}
})

// tableRow is the table's row for the named scenario.
func tableRow(name string) *settingsRow {
	i := slices.IndexFunc(settingsRows(), func(r *settingsRow) bool { return r.s.Name() == name })
	return settingsRows()[i]
}

// TestRunSettingsEquivalence pins what makes the execution settings
// pure performance knobs: each row run at each setting gives the
// reference's results. The job-pool size acts in the runner
// (checkParallel); the shard count and tracing act inside a job
// (checkInJob). Rows whose in-job check a named test runs skip it here.
func TestRunSettingsEquivalence(t *testing.T) {
	t.Parallel()
	for _, row := range settingsRows() {
		row := row
		t.Run(row.s.Name(), func(t *testing.T) {
			t.Parallel()
			ref := row.reference()
			if len(ref.fig.Runs) != row.s.Grid().Points {
				t.Fatalf("%d runs filed for %d grid points", len(ref.fig.Runs), row.s.Grid().Points)
			}
			for i, r := range ref.runs {
				if r.Shards != min(row.shards, 1) {
					t.Errorf("serial job %d reports %d shard workers, want %d", i, r.Shards, min(row.shards, 1))
				}
			}
			for _, parallel := range row.parallel {
				checkParallel(t, row, parallel)
			}
			if row.inJob == "" {
				checkInJob(t, row)
			}
		})
	}
}

// TestRunScenarioParallelMatchesSerial: the fig9 row on eight workers
// assembles the serial reference's figure and runs.
func TestRunScenarioParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	checkParallel(t, tableRow("fig9"), 8)
}

// TestDeterministicFigures: the fig9 row run again with the reference's
// own settings gives the same figure, byte for byte — the property that
// makes every figure dsbench prints reproducible.
func TestDeterministicFigures(t *testing.T) {
	t.Parallel()
	checkParallel(t, tableRow("fig9"), 1)
}

// TestShardedTandemEquivalence: the tandem is one unbatched stream, so
// each of its jobs asked for 4 shards reports one effective worker and
// returns the serial job's Point.
func TestShardedTandemEquivalence(t *testing.T) {
	t.Parallel()
	checkInJob(t, tableRow("tandem"))
}

// TestShardsKnobReachesJobs pins the plumbing from RunOptions through
// Ctx into the topology configs: each nflow-wide job asked for 4 shards
// reports 4 effective workers (1 serially) and returns the serial job's
// very Point.
func TestShardsKnobReachesJobs(t *testing.T) {
	t.Parallel()
	checkInJob(t, tableRow("nflow-wide"))
}

// checkParallel runs row on parallel workers: the run must assemble the
// reference's figure and file its Figure.Runs, one per grid point, with
// only the host's readings masked. The job-pool size is also how much
// storage a job inherits: at Parallel 1 one worker's Ctx serves every
// job, so each receives on the buffers the job before it grew (UDP
// receivers, the TCP stream and its assembler); at Parallel 2 the jobs
// split over two colder workers, at Parallel 8 most get their own.
func checkParallel(t *testing.T, row *settingsRow, parallel int) {
	ref := row.reference()
	got := RunScenarioOpts(row.s, RunOptions{Parallel: parallel})
	if !reflect.DeepEqual(ref.fig.Series, got.Series) {
		t.Errorf("parallel=%d: figure diverged from the serial reference:\n%s\nvs\n%s",
			parallel, got.Format(), ref.fig.Format())
	}
	if want, runs := maskRuns(ref.fig.Runs), maskRuns(got.Runs); !reflect.DeepEqual(want, runs) {
		t.Errorf("parallel=%d: runs diverged from the serial reference:\n%+v\nvs\n%+v", parallel, runs, want)
	}
}

// checkInJob runs row once serially with 4 shards asked and every event
// traced into a small ring: each job must return the reference job's
// very Point and report the row's effective shard count, and the run
// must leave one trace file per grid point.
func checkInJob(t *testing.T, row *settingsRow) {
	ref := row.reference()
	tr := &TraceRequest{Dir: t.TempDir(), Config: ptrace.Config{Capacity: 1 << 12}}
	got := captureRun(row.s, RunOptions{Parallel: 1, Shards: 4, Trace: tr})
	for i := range ref.points {
		if !reflect.DeepEqual(ref.points[i], got.points[i]) {
			t.Errorf("shards=4, traced: job %d diverged from the serial reference:\nref %+v\ngot %+v",
				i, ref.points[i], got.points[i])
		}
		if got.runs[i].Shards != row.shards {
			t.Errorf("shards=4: job %d reports %d shard workers, want %d", i, got.runs[i].Shards, row.shards)
		}
	}
	if points := row.s.Grid().Points; tr.Err() != nil || len(tr.Files()) != points {
		t.Errorf("traced: %d trace files for %d grid points (err %v)", len(tr.Files()), points, tr.Err())
	}
}

// maskRuns copies runs without the readings that measure the host, not
// the simulation: wall clock, shard stall and heap.
func maskRuns(runs []RunStats) []RunStats {
	out := append([]RunStats(nil), runs...)
	for i := range out {
		out[i].RunMS, out[i].StallRatio, out[i].HeapBytes = 0, 0, 0
	}
	return out
}

package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The sharding differential harness: an intra-run sharded grid point
// must be byte-identical to the serial one — same per-flow delivered
// packet and byte counts, same per-flow policer verdicts, same
// bottleneck totals, bit-equal quality figures, and a byte-identical
// .ptrace capture. This is the contract that makes
// `dsbench -shards` a pure throughput knob: the figure a sharded run
// assembles is the figure a serial run assembles, at every shard
// count on these grids. A same-instant tie between an injected
// delivery and a native border event resolves by event sequence in the
// serial walk and injection-first in the pipeline (see
// internal/flowbatch); the tested grids realize no such tie.

// shardTrace builds the bounded verdict-masked recorder every harness
// run records into. Packet ids are numbered by the run's own pool, so
// two equivalent runs encode to identical bytes as recorded.
func shardTrace() *ptrace.Recorder {
	return ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 16, Kinds: ptrace.VerdictKinds()})
}

func shardTraceBytes(t *testing.T, rec *ptrace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShardedNFlowPoint builds and runs one multi-flow grid point at
// the given scenario spec's configuration with the given shard count
// (0 serial), recording its trace.
func runShardedNFlowPoint(t *testing.T, spec MultiFlowSpec, n, shards int) (*topology.MultiFlow, []Evaluation, []byte) {
	t.Helper()
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	rec := shardTrace()
	m := topology.BuildMultiFlow(topology.MultiFlowConfig{
		Seed: spec.Seed, Enc: enc, N: n,
		TokenRate: spec.TokenRate, Depth: spec.Depth,
		BottleneckRate: spec.BottleneckRate, Sched: spec.Sched,
		BELoad: spec.BELoad, Batch: spec.Batch, Stagger: spec.Stagger,
		Trace: rec, Shards: shards,
	})
	m.Run()
	evs := make([]Evaluation, n)
	for i, cl := range m.Clients {
		evs[i] = Evaluate(cl.Trace(), enc, enc)
	}
	return m, evs, shardTraceBytes(t, rec)
}

// requireMultiFlowIdentical asserts the full byte-compare set between
// a serial reference run and a sharded run of the same point.
func requireMultiFlowIdentical(t *testing.T, label string, ref, got *topology.MultiFlow, refEv, gotEv []Evaluation, refTrace, gotTrace []byte) {
	t.Helper()
	for i := range ref.Clients {
		if ref.Clients[i].Packets != got.Clients[i].Packets ||
			ref.Clients[i].PacketsBytes != got.Clients[i].PacketsBytes {
			t.Errorf("%s: flow %d delivered: serial %d pkts/%d B, sharded %d pkts/%d B",
				label, i, ref.Clients[i].Packets, ref.Clients[i].PacketsBytes,
				got.Clients[i].Packets, got.Clients[i].PacketsBytes)
		}
		ps, pg := ref.Policers[i], got.Policers[i]
		if ps.Passed != pg.Passed || ps.Dropped != pg.Dropped ||
			ps.PassedBytes != pg.PassedBytes || ps.DroppedBytes != pg.DroppedBytes {
			t.Errorf("%s: flow %d policer: serial pass=%d drop=%d (%d/%d B), sharded pass=%d drop=%d (%d/%d B)",
				label, i, ps.Passed, ps.Dropped, ps.PassedBytes, ps.DroppedBytes,
				pg.Passed, pg.Dropped, pg.PassedBytes, pg.DroppedBytes)
		}
		if refEv[i] != gotEv[i] {
			t.Errorf("%s: flow %d evaluation diverged:\nserial  %+v\nsharded %+v",
				label, i, refEv[i], gotEv[i])
		}
	}
	if ref.Bottleneck.Sent != got.Bottleneck.Sent ||
		ref.Bottleneck.SentBytes != got.Bottleneck.SentBytes {
		t.Errorf("%s: bottleneck: serial %d pkts/%d B, sharded %d pkts/%d B",
			label, ref.Bottleneck.Sent, ref.Bottleneck.SentBytes,
			got.Bottleneck.Sent, got.Bottleneck.SentBytes)
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Errorf("%s: .ptrace captures differ (%d vs %d bytes)",
			label, len(refTrace), len(gotTrace))
	}
}

// TestShardedNFlowEquivalence pins the capping rule on the nflow grid:
// its points are unbatched, so they have no partitionable flows, and a
// request for 4 shards runs serially — one effective worker,
// byte-identical to the serial point.
func TestShardedNFlowEquivalence(t *testing.T) {
	t.Parallel()
	spec := nflowSweepSpec()
	for _, n := range []int{3, 6} {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel()
			ref, refEv, refTrace := runShardedNFlowPoint(t, spec, n, 0)
			got, gotEv, gotTrace := runShardedNFlowPoint(t, spec, n, 4)
			if got.Stats.Shards != 1 {
				t.Errorf("shards=4: effective worker count %d, want 1 (nothing to partition)",
					got.Stats.Shards)
			}
			requireMultiFlowIdentical(t, "shards=4", ref, got, refEv, gotEv, refTrace, gotTrace)
		})
	}
}

// TestShardedNFlowWideEquivalence pins sharded == serial on the
// nflow-wide (batched, three-stage pipeline) grid at 2–8 shards.
func TestShardedNFlowWideEquivalence(t *testing.T) {
	t.Parallel()
	spec := nflowWideSpec()
	ns := []int{16}
	if !testing.Short() {
		ns = append(ns, 64)
	}
	for _, n := range ns {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel()
			ref, refEv, refTrace := runShardedNFlowPoint(t, spec, n, 0)
			for _, shards := range []int{2, 4, 8} {
				got, gotEv, gotTrace := runShardedNFlowPoint(t, spec, n, shards)
				requireMultiFlowIdentical(t, fmt.Sprintf("shards=%d", shards),
					ref, got, refEv, gotEv, refTrace, gotTrace)
			}
		})
	}
}

// TestShardedTandemEquivalence pins the same rule on the tandem grid:
// one unbatched stream, so a job asked for 4 shards — the job of every
// seed of the point included — reports one effective worker and returns
// the point a serial job returns.
func TestShardedTandemEquivalence(t *testing.T) {
	t.Parallel()
	spec := tandemSweepSpec()
	spec.Tokens = spec.Tokens[:1]
	spec.Runs = 2
	for i, job := range spec.Grid().Jobs() {
		ctx := &Ctx{Shards: 4}
		serial, sharded := job(&Ctx{}), job(ctx)
		if ctx.Run.Shards != 1 {
			t.Errorf("job %d: sharded run reports Shards=%d, want 1 (single stream)", i, ctx.Run.Shards)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("job %d: sharded point diverged from serial:\nserial  %+v\nsharded %+v", i, serial, sharded)
		}
	}
}

// TestShardsKnobReachesJobs pins the plumbing from RunOptions through
// Ctx into the topology configs: a sharded scenario job reports its
// effective shard count and returns the very Point the serial job does.
func TestShardsKnobReachesJobs(t *testing.T) {
	t.Parallel()
	spec := nflowWideSpec()
	spec.Ns = []int{8}
	serialCtx, shardedCtx := &Ctx{}, &Ctx{Shards: 4}
	serial := spec.Grid().Jobs()[0](serialCtx)
	sharded := spec.Grid().Jobs()[0](shardedCtx)
	if shardedCtx.Run.Shards != 4 {
		t.Errorf("sharded run reports Shards=%d, want 4", shardedCtx.Run.Shards)
	}
	if serialCtx.Run.Shards != 1 {
		t.Errorf("serial run reports Shards=%d, want 1", serialCtx.Run.Shards)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded job diverged from serial:\nserial  %+v\nsharded %+v", serial, sharded)
	}
}

// TestRunSettingsEquivalence pins what makes the execution knobs pure
// performance knobs at the figure level: the assembled Series — whole
// Points, not a hand-picked subset of their fields — are identical
// across the job-pool size and the intra-run shard count, on one
// scenario of each multi-job family and on three ablations. The
// job-pool size is also how much storage a job inherits: at Parallel 1
// one worker's Ctx serves every job, so each receives on the buffers
// the point before it grew (UDP receivers on three families, the TCP
// stream and its assembler on the fourth), and at Parallel 2 the jobs
// split over two colder workers.
func TestRunSettingsEquivalence(t *testing.T) {
	t.Parallel()
	wide := nflowWideSpec()
	wide.Ns = []int{4, 8}
	fleet := nflowFleetSpec()
	fleet.Ns = []int{1000, 2000}
	fleet.BottleneckRate = 0.5e9 // knee between the two points
	tandem := tandemSweepSpec()
	tandem.Tokens = tandem.Tokens[:1]
	tandem.Runs = 2
	// Token rates either side of the stream's cap: the first points thin
	// most of the clip at the server, the last deliver it whole, so the
	// lent trace and message list are outgrown along the sweep.
	tcp := Figure15Spec()
	tcp.Key, tcp.UseTCP = "fig15-tcp", true
	tcp.Tokens = []units.BitRate{500e3, 900e3, 1300e3, 2500e3}
	tcp.Depths = tcp.Depths[:1]
	// The ablations carry their own Point columns: EF delay statistics,
	// srTCM colour counts, and the TCP stack series.
	ef := efServiceAblation([]float64{0.02, 0.8})
	af := afAblation([]float64{0.75}, []units.BitRate{0.6e6, 1.4e6})
	tcpAbl := tcpAblation([]units.BitRate{1.3e6})

	settings := []struct {
		name string
		opts RunOptions
	}{
		{"parallel=2", RunOptions{Parallel: 2}},
		{"shards=4", RunOptions{Parallel: 1, Shards: 4}},
	}
	for _, s := range []Scenario{wide.Grid(), fleet.Grid(), tandem.Grid(), tcp, ef, af, tcpAbl} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			ref := RunScenarioOpts(s, RunOptions{Parallel: 1})
			if len(ref.Runs) != s.Grid().Points {
				t.Fatalf("%d runs filed for %d grid points", len(ref.Runs), s.Grid().Points)
			}
			for _, set := range settings {
				got := RunScenarioOpts(s, set.opts)
				if !reflect.DeepEqual(ref.Series, got.Series) {
					t.Errorf("%s: series diverged from the serial reference:\nref %+v\ngot %+v",
						set.name, ref.Series, got.Series)
				}
			}
		})
	}
}

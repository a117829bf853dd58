package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/scenfile"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The re-drive: under -trace the harness runs the workload's heaviest
// grid point itself — topology.Build* → Run → experiment.Evaluate per
// client, or the ptrace write/read chain — one span per call, and reads
// afterwards the counters the elements already export. The scenario
// layer (experiment.*Spec.Jobs) does the same calls; doing them here is
// what lets each be timed from outside.

// counters are the exact readings of one re-driven simulation.
type counters struct {
	events, scheduled, rebases, widthMoves, purged uint64
	overflowRatio, widthUS                         float64
	simSeconds                                     float64 // simulated time covered

	flows      int   // video flows in the point
	vflows     int64 // of which fanned out by flowbatch
	emitted    int64 // packets flowbatch materialized
	offered    int64 // packets every source offered the network
	passed     int64 // policer verdicts
	dropped    int64
	linkTx     int64 // over every link
	busyShare  float64
	enqueued   int64 // over every link's scheduler classes
	queueDrops int64
	routed     int64 // packets through node.Router elements
	delivered  int64
	frames     int64
	poolFree   int64

	shard       topology.ShardStats
	deliveredBy []int64 // delivered packets per class (aggregated sinks) or per flow
	packetLoss  float64
	physics     []string // golden lines: the modelled network's counters
}

// redriveResult is one re-driven point: spans, allocation deltas and
// counters, plus the trace-chain readings for trace-io.
type redriveResult struct {
	// point is the re-driven grid point's index in the workload's first
	// scenario (< 0: a seed-averaged point, nothing to compare with).
	point int

	buildS, runS, evalS float64
	mallocs             uint64
	liveHeapBytes       float64
	c                   counters

	// batched workloads: the same point on the other run path (sharded
	// for a serial workload, serial for a sharded one).
	other *redriveResult

	// trace-io only.
	recordS, spillS, digestS, compareS float64
	eventsSeen, eventsKept             uint64
	bytesPerEvent                      float64
}

func (c *counters) readSim(s *sim.Simulator) {
	qs := s.QueueStats()
	c.events = s.Fired()
	c.scheduled, c.rebases, c.widthMoves, c.purged = qs.Scheduled, qs.Rebases, qs.WidthMoves, qs.PurgedCancelled
	c.overflowRatio = qs.OverflowRatio()
	c.widthUS = float64(qs.Width) / float64(units.Microsecond)
	c.simSeconds = s.Now().Seconds()
}

func (c *counters) addLink(l *link.Link) {
	c.linkTx += int64(l.Sent)
	for _, cl := range l.Sched.Classes() {
		c.enqueued += int64(cl.Enqueued)
		c.queueDrops += int64(cl.Dropped)
	}
}

func (c *counters) addPolicer(p *tokenbucket.Policer) {
	c.passed += int64(p.Passed)
	c.dropped += int64(p.Dropped)
}

// bottleneckPhysics pins what the modelled bottleneck did.
func (c *counters) bottleneckPhysics(l *link.Link) {
	c.busyShare = l.Utilization()
	for _, cl := range l.Sched.Classes() {
		c.physics = append(c.physics,
			fmt.Sprintf("bottleneck.%s.enqueued=%d", cl.Name, cl.Enqueued),
			fmt.Sprintf("bottleneck.%s.dropped=%d", cl.Name, cl.Dropped))
	}
	c.physics = append(c.physics, fmt.Sprintf("bottleneck.sent=%d", l.Sent),
		fmt.Sprintf("bottleneck.sent_bytes=%d", l.SentBytes))
}

// measured wraps build+run of one point with allocation and live-heap
// accounting: mallocs is the MemStats.Mallocs delta across both calls,
// liveHeapBytes the growth of HeapAlloc after a forced GC while the
// built network (keep) is still reachable.
func measured(tr *Tracer, parent int, r *redriveResult, build func() (run func(), keep any)) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var run func()
	var keep any
	r.buildS = timed(tr, "topology.build", parent, func() { run, keep = build() })
	r.runS = timed(tr, "sim.run", parent, run)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		r.liveHeapBytes = float64(m1.HeapAlloc - m0.HeapAlloc)
	}
	runtime.KeepAlive(keep)
}

// timed runs fn inside a tracer span (or bare when spans are off) and
// returns how long it took.
func timed(tr *Tracer, name string, parent int, fn func()) float64 {
	if tr != nil {
		return tr.Time(name, parent, fn)
	}
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// redriveQBone re-drives the first grid point of the fig7 spec.
func redriveQBone(h *harness) (*redriveResult, error) {
	spec := h.prep.scenarios[0].(experiment.QBoneSpec)
	enc := video.CachedCBR(spec.Clip, spec.EncRate)
	r := &redriveResult{point: -1}
	var q *topology.QBone
	measured(h.tr, h.root, r, func() (func(), any) {
		q = topology.BuildQBone(topology.QBoneConfig{
			Seed: spec.Seed, Enc: enc, TokenRate: spec.Tokens[0], Depth: spec.Depths[0],
			CrossLoad: spec.CrossLoad, Pool: packet.NewPool(),
		})
		q.Client.Tolerance = client.SliceTolerance
		return q.Run, q
	})
	r.evalS = timed(h.tr, "eval.score", h.root, func() { experiment.Evaluate(q.Client.Trace(), enc, enc) })

	c := &r.c
	c.readSim(q.Sim)
	c.flows = 1
	c.offered = int64(q.Server.Sent)
	for _, x := range q.Cross {
		c.offered += int64(x.Sent)
	}
	c.addPolicer(q.Policer)
	access := q.Net.Link("access")
	for _, l := range append([]*link.Link{q.Net.Link("campus"), access}, q.Hops...) {
		c.addLink(l)
	}
	c.routed = int64(q.Net.Router("border").Received)
	c.delivered, c.frames = int64(q.Client.Packets), int64(len(q.Client.Trace().Records))
	c.poolFree = int64(q.Net.Pool.Free())
	c.packetLoss = q.Policer.LossFraction()
	c.physics = append(c.physics,
		fmt.Sprintf("server.sent=%d", q.Server.Sent),
		fmt.Sprintf("policer.passed=%d", q.Policer.Passed),
		fmt.Sprintf("policer.dropped=%d", q.Policer.Dropped),
		fmt.Sprintf("client.delivered_pkts=%d", q.Client.Packets),
		fmt.Sprintf("client.delivered_bytes=%d", q.Client.PacketsBytes),
		fmt.Sprintf("client.frames=%d", c.frames))
	c.bottleneckPhysics(access)
	return r, nil
}

// bottleneckScheds spells a scenario file's "sched" as the topology's.
var bottleneckScheds = map[string]topology.BottleneckSched{
	"priority": topology.PriorityBottleneck, "drr": topology.DRRBottleneck, "wfq": topology.WFQBottleneck,
}

// argmax is the index of the heaviest point of a flow-count sweep.
func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// multiflowConfig spells the heaviest point of a multiflow scenario
// file as the topology config experiment.MultiFlowSpec's job builds.
func multiflowConfig(f *scenfile.File, shards int) (topology.MultiFlowConfig, *video.Encoding) {
	m := f.Multiflow
	enc := video.CachedCBR(clipModel(m.Clip), units.BitRate(m.EncRateBps))
	return topology.MultiFlowConfig{
		Seed: m.Seed, Enc: enc, N: m.Flows[argmax(m.Flows)],
		TokenRate: units.BitRate(m.Policer.RateBps), Depth: units.ByteSize(m.Policer.DepthBytes),
		BottleneckRate: units.BitRate(m.BottleneckRateBps), Sched: bottleneckScheds[m.Sched],
		BELoad: m.BELoad, Pool: packet.NewPool(),
		Batch: m.Batch, Stagger: units.Time(m.StaggerUS) * units.Microsecond, Shards: shards,
	}, enc
}

// fleetConfig spells the heaviest point of a fleet scenario file as the
// topology config experiment.FleetSpec's job builds (class populations
// by share with the last class absorbing rounding, starts spread over
// the window, one millisecond of phase per class). The traced run
// checks the result against the scenario's own, so a drift between the
// two spellings fails loudly.
func fleetConfig(f *scenfile.File, shards int) topology.MultiFlowConfig {
	fl := f.Fleet
	n := fl.Flows[argmax(fl.Flows)]
	window := units.Time(fl.StartWindowUS) * units.Microsecond
	classes := make([]topology.FlowClass, len(fl.Classes))
	rem := n
	for ci, fc := range fl.Classes {
		cn := int(float64(n)*fc.Share + 0.5)
		if ci == len(fl.Classes)-1 || cn > rem {
			cn = rem
		}
		rem -= cn
		stagger := units.Time(1)
		if cn > 0 {
			if stagger = window / units.Time(cn); stagger <= 0 {
				stagger = 1
			}
		}
		classes[ci] = topology.FlowClass{
			Name: fc.Name,
			Enc:  video.CachedCBR(clipModel(fc.Clip), units.BitRate(fc.EncRateBps)),
			N:    cn, TokenRate: units.BitRate(fc.TokenRate), Depth: units.ByteSize(fl.DepthBytes),
			Truncate: units.Time(fl.TruncateUS) * units.Microsecond,
			Phase:    units.Time(ci) * units.Millisecond,
			Stagger:  stagger,
		}
	}
	return topology.MultiFlowConfig{
		Seed: fl.Seed, Classes: classes, Depth: units.ByteSize(fl.DepthBytes),
		BottleneckRate: units.BitRate(fl.BottleneckRateBps), Sched: bottleneckScheds[fl.Sched],
		BELoad: fl.BELoad, Pool: packet.NewPool(),
		Batch: true, AggregateStats: true, Shards: shards,
	}
}

// driveMultiFlow builds, runs and reads one multi-flow point. enc is
// nil for aggregated-stats fleets, which have no per-flow evaluation.
func driveMultiFlow(h *harness, cfg topology.MultiFlowConfig, enc *video.Encoding) *redriveResult {
	r := &redriveResult{}
	var m *topology.MultiFlow
	measured(h.tr, h.root, r, func() (func(), any) {
		m = topology.BuildMultiFlow(cfg)
		return m.Run, m
	})
	if enc != nil {
		r.evalS = timed(h.tr, "eval.score", h.root, func() {
			for _, cl := range m.Clients {
				experiment.Evaluate(cl.Trace(), enc, enc)
			}
		})
	}

	c := &r.c
	c.readSim(m.Sim)
	c.events += m.Stats.ShardFired
	c.shard = m.Stats
	c.flows = len(m.Policers)
	for _, p := range m.Policers {
		c.addPolicer(p)
	}
	c.offered = c.passed + c.dropped
	if cfg.Batch {
		c.vflows, c.emitted = int64(c.flows), c.offered
	}
	if cfg.BELoad > 0 {
		c.offered += int64(m.Net.Poisson("be-cross").Sent)
	}
	c.addLink(m.Bottleneck)
	for i := range m.Servers {
		c.addLink(m.Net.Link(fmt.Sprintf("hub%d", i)))
	}
	c.poolFree = int64(m.Net.Pool.Free())
	c.packetLoss = m.AggregatePolicerLoss()

	c.physics = append(c.physics, fmt.Sprintf("policers.passed=%d", c.passed),
		fmt.Sprintf("policers.dropped=%d", c.dropped))
	perFlow := sha256.New()
	if len(m.Aggregates) > 0 {
		for ci, agg := range m.Aggregates {
			c.delivered += agg.Packets
			c.deliveredBy = append(c.deliveredBy, agg.Packets)
			c.physics = append(c.physics,
				fmt.Sprintf("class.%s.delivered_pkts=%d", m.ClassNames[ci], agg.Packets),
				fmt.Sprintf("class.%s.delivered_bytes=%d", m.ClassNames[ci], agg.Bytes))
		}
		for _, p := range m.Policers {
			fmt.Fprintf(perFlow, "%d,%d;", p.Passed, p.Dropped)
		}
	} else {
		c.routed = int64(m.Net.Router("demux").Received)
		for _, cl := range m.Clients {
			c.delivered += int64(cl.Packets)
			c.deliveredBy = append(c.deliveredBy, int64(cl.Packets))
			c.frames += int64(len(cl.Trace().Records))
			fmt.Fprintf(perFlow, "%d,%d;", cl.Packets, cl.PacketsBytes)
		}
		c.physics = append(c.physics, fmt.Sprintf("clients.delivered_pkts=%d", c.delivered),
			fmt.Sprintf("clients.frames=%d", c.frames))
	}
	c.physics = append(c.physics, "per_flow_sha256="+hex.EncodeToString(perFlow.Sum(nil)[:8]))
	c.bottleneckPhysics(m.Bottleneck)
	return r
}

// redriveMultiflow drives the largest flow count of the workload's
// multiflow scenario file (part 0); bothPaths adds the Shards: 2 run of
// the same point.
func redriveMultiflow(h *harness, bothPaths bool) (*redriveResult, error) {
	f := h.in.files[0]
	drive := func(h *harness, shards int) *redriveResult {
		cfg, enc := multiflowConfig(f, shards)
		return driveMultiFlow(h, cfg, enc)
	}
	r := drive(h, 1)
	if bothPaths {
		r.other = drive(h.untraced(), 2)
	}
	r.point = argmax(f.Multiflow.Flows)
	return r, nil
}

// redriveFleet drives the fleet point on the workload's own run path
// (shards) and once more on the other one, so the sharded run's
// distance from the serial one and its speed-up are measured in the
// same process on the same inputs. The scale-dependent part of that
// distance is ROADMAP open item 4; the benchmark records it, it does
// not fail on it.
func redriveFleet(h *harness, shards int) (*redriveResult, error) {
	f := h.in.files[0]
	r := driveMultiFlow(h, fleetConfig(f, shards), nil)
	r.point = argmax(f.Fleet.Flows)
	r.other = driveMultiFlow(h.untraced(), fleetConfig(f, 3-shards), nil)
	return r, nil
}

// untraced is h with spans off: the other run path's calls are not this
// workload's spans.
func (h *harness) untraced() *harness {
	other := *h
	other.tr = nil
	return &other
}

// redriveTandem drives the two-border point of the tandem file three
// ways — untraced, recorded into the ring only, recorded and spilled —
// so recording and spilling are each the difference of two sim.run
// spans, then reads the sealed file back through the digest and diff
// calls, one span each.
func redriveTandem(h *harness) (*redriveResult, error) {
	t := h.in.files[0].Tandem
	enc := video.CachedCBR(clipModel(t.Clip), units.BitRate(t.EncRateBps))
	build := func(rec *ptrace.Recorder) *topology.Tandem {
		return topology.BuildTandem(topology.TandemConfig{
			Seed: t.Seed, Enc: enc, TokenRate: units.BitRate(t.TokenSweep.FromKbps) * units.Kbps,
			Depth: units.ByteSize(t.DepthBytes), SecondBorder: true,
			Pool: packet.NewPool(), Trace: rec,
		})
	}
	r := &redriveResult{point: -1}
	var td *topology.Tandem
	measured(h.tr, h.root, r, func() (func(), any) {
		td = build(nil)
		return td.Run, td
	})
	r.evalS = timed(h.tr, "eval.score", h.root, func() { experiment.Evaluate(td.Client.Trace(), enc, enc) })

	ring := build(ptrace.NewRecorder(h.in.traceConfig()))
	ringS := timed(h.tr, "sim.run+record", h.root, ring.Run)

	dir, err := os.MkdirTemp(h.in.dir, "redrive-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "tandem.ptrace")
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	bw := bufio.NewWriterSize(file, 1<<16)
	rec := ptrace.NewRecorder(h.in.traceConfig())
	rec.SpillTo(bw)
	spilled := build(rec)
	spillS := timed(h.tr, "sim.run+record+spill", h.root, func() {
		spilled.Run()
		r.eventsKept = rec.Spilled()
		if err = rec.FinishSpill(); err == nil {
			err = bw.Flush()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sealing the spill: %w", err)
	}
	r.recordS, r.spillS = ringS-r.runS, spillS-ringS
	r.eventsSeen = rec.Seen()
	if st, err := file.Stat(); err == nil && r.eventsKept > 0 {
		r.bytesPerEvent = float64(st.Size()) / float64(r.eventsKept)
	}

	var sum *ptrace.Summary
	r.digestS = timed(h.tr, "ptrace.digest", h.root, func() {
		if _, err = file.Seek(0, io.SeekStart); err == nil {
			sum, _, err = ptrace.AnalyzeStream(file, 0)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("digesting the spill: %w", err)
	}
	digestPath := filepath.Join(dir, "tandem.digest")
	r.compareS = timed(h.tr, "ptrace.compare", h.root, func() {
		if err = atomicfile.WriteTo(digestPath, func(w io.Writer) error { return ptrace.WriteSummary(w, sum) }); err != nil {
			return
		}
		var df *os.File
		if df, err = os.Open(digestPath); err != nil {
			return
		}
		defer df.Close()
		var stored *ptrace.Summary
		if stored, err = ptrace.ReadSummary(df); err != nil {
			return
		}
		if !ptrace.CompareSummaries(sum, sum, ptrace.Thresholds{}).Clean() ||
			!ptrace.CompareSummaries(sum, stored, ptrace.Thresholds{}).Clean() {
			err = fmt.Errorf("re-driven trace summary does not survive its round trip")
		}
	})
	if err != nil {
		return nil, err
	}

	c := &r.c
	c.readSim(td.Sim)
	c.flows = 1
	c.offered = int64(td.Server.Sent)
	c.addPolicer(td.Border1)
	c.addPolicer(td.Border2)
	access := td.Net.Link("access")
	c.addLink(td.Net.Link("campus"))
	c.addLink(access)
	for _, name := range []string{"d1hop0", "d1hop1", "d2hop0", "d2hop1"} {
		c.addLink(td.Net.Link(name))
		c.offered += int64(td.Net.Poisson(name + "-cross").Sent)
	}
	c.routed = int64(td.Net.Router("border").Received + td.Net.Router("interdomain").Received)
	c.delivered, c.frames = int64(td.Client.Packets), int64(len(td.Client.Trace().Records))
	c.poolFree = int64(td.Net.Pool.Free())
	c.physics = append(c.physics,
		fmt.Sprintf("border1.passed=%d", td.Border1.Passed), fmt.Sprintf("border1.dropped=%d", td.Border1.Dropped),
		fmt.Sprintf("border2.passed=%d", td.Border2.Passed), fmt.Sprintf("border2.dropped=%d", td.Border2.Dropped),
		fmt.Sprintf("client.delivered_pkts=%d", td.Client.Packets),
		fmt.Sprintf("client.delivered_bytes=%d", td.Client.PacketsBytes),
		fmt.Sprintf("client.frames=%d", c.frames),
		"trace.summary_sha256="+shortHash(sum.Format()))
	c.bottleneckPhysics(access)
	return r, nil
}

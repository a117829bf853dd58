package topology

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/server"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
)

// The one multi-flow build: the N-flow topology over K equivalence
// classes — "100k Lost-clip viewers plus 20k CBR-like elephants" as one
// run, and the homogeneous N-flow population as its K = 1 case. Each
// class fans one cached emission schedule out as its own phase-offset
// virtual-flow set with its own policing profile; the classes' arrival
// sequences interleave in exact global (time, flow) order inside
// flowbatch.BatchedMixture, so the batched/unbatched and sharded/serial
// differential harnesses cover homogeneous runs and mixtures alike.
//
// Two receive-side modes:
//
//   - Exact (default): one client.UDP per flow behind the demux. O(N)
//     memory — for frame-level evaluation, equivalence tests and small
//     populations.
//   - Aggregated (MultiFlowConfig.AggregateStats): one client.Aggregate
//     per class behind an O(1) flow→class demux. Streaming moments and
//     P² delay sketches instead of frame traces: memory and assembly
//     cost O(K), which is what lets a fleet sweep reach six-figure flow
//     counts with ~flat bytes per flow.

// FlowClass declares one equivalence class of a mixture population.
type FlowClass struct {
	Name string          // stats label; default "classK"
	Enc  *video.Encoding // class clip + encoding (use the cached encodings)
	N    int             // virtual flows in this class

	TokenRate units.BitRate  // per-flow EF policing rate
	Depth     units.ByteSize // per-flow burst depth; default cfg.Depth

	// Truncate caps each flow's emission schedule at this offset from
	// the flow's start (0 streams the whole clip). Batched builds only:
	// an unbatched server.Paced always plays the full clip, so a
	// truncated unbatched build would break the equivalence contract.
	Truncate units.Time

	Phase   units.Time // class start offset from the run's start
	Stagger units.Time // intra-class start stagger; default cfg.Stagger
}

// classDemux routes delivered packets to their class aggregate in O(1):
// video flows carry class-major indices off base, anything else (cross
// traffic) is absorbed by the sink.
type classDemux struct {
	base    packet.FlowID
	classOf []int32
	aggs    []*client.Aggregate
	sink    packet.Handler
}

// Handle implements packet.Handler.
func (d *classDemux) Handle(p *packet.Packet) {
	i := int64(p.Flow - d.base)
	if i < 0 || i >= int64(len(d.classOf)) {
		d.sink.Handle(p)
		return
	}
	d.aggs[d.classOf[i]].Handle(p)
}

// buildMixtureMultiFlow is the body of BuildMultiFlow: the
// bottleneck/demux/cross-traffic graph around a class mixture, with —
// under AggregateStats — the per-flow receivers replaced by per-class
// accumulators. horizon is the run's end; 0 derives it from the
// classes' last emission.
func buildMixtureMultiFlow(cfg MultiFlowConfig, horizon units.Time) *MultiFlow {
	chain := flowbatch.ChainSpec{
		AccessRate: accessRate, AccessDelay: accessDelay, JitterMax: accessJitterMax,
	}
	k := len(cfg.Classes)
	classes := make([]flowbatch.MixtureClass, k)
	names := make([]string, k)
	total := 0
	for ci, fc := range cfg.Classes {
		if fc.Enc == nil || fc.N <= 0 {
			panic(fmt.Sprintf("topology: mixture class %d needs Enc and N > 0", ci))
		}
		if fc.Truncate > 0 && !cfg.Batch {
			panic(fmt.Sprintf("topology: mixture class %d: Truncate requires Batch (unbatched servers play the full clip)", ci))
		}
		stagger := fc.Stagger
		if stagger == 0 {
			stagger = cfg.Stagger
		}
		sched := flowbatch.TruncateSchedule(flowbatch.CachedPacedSchedule(fc.Enc), fc.Truncate)
		classes[ci] = flowbatch.MixtureClass{
			Sched: sched, N: fc.N, Phase: fc.Phase, Offset: stagger, Chain: chain,
		}
		names[ci] = fc.Name
		if names[ci] == "" {
			names[ci] = fmt.Sprintf("class%d", ci)
		}
		total += fc.N
	}

	// Class-major flow layout and per-flow start table. A flow's
	// encoding is its class's, read through classOf by the two branches
	// that need it (exact receive, unbatched servers); the fleet never
	// does.
	classOf := make([]int32, total)
	starts := make([]units.Time, total)
	var drained units.Time
	g := 0
	for ci := range classes {
		c := &classes[ci]
		span := units.Time(0)
		if n := len(c.Sched.Entries); n > 0 {
			span = c.Sched.Entries[n-1].At
		}
		// +5 s drains in-flight delivery after the last emission (access
		// chain + jitter + bottleneck queue + propagation are all
		// millisecond-scale; a 30 s tail would be paid in cross-traffic
		// events at every point of a fleet sweep).
		end := c.Phase + units.Time(int64(c.N))*c.Offset + span + units.FromSeconds(5)
		if end > drained {
			drained = end
		}
		for j := 0; j < c.N; j++ {
			classOf[g] = int32(ci)
			starts[g] = c.Phase + units.Time(int64(j))*c.Offset
			g++
		}
	}
	if horizon == 0 {
		horizon = drained
	}

	b := NewBuilder(cfg.Seed, cfg.Sim, cfg.Pool)
	b.UseTrace(cfg.Trace)
	m := &MultiFlow{Sim: b.Sim(), shards: cfg.Shards, ClassNames: names,
		starts: starts, horizon: horizon}

	// Receive side.
	sink := packet.Sink{Pool: b.Pool()}
	b.Handler("sink", &sink)
	if cfg.AggregateStats {
		m.Aggregates = make([]*client.Aggregate, k)
		for ci := range m.Aggregates {
			agg := client.NewAggregate(b.Sim())
			agg.Pool = b.Pool()
			if cfg.Trace != nil {
				agg.Tap, agg.Hop = cfg.Trace, cfg.Trace.Hop("agg-"+names[ci])
			}
			m.Aggregates[ci] = agg
		}
		b.Handler("demux", &classDemux{
			base: VideoFlow, classOf: classOf, aggs: m.Aggregates, sink: &sink,
		})
	} else {
		b.Router("demux", "sink")
		for i := 0; i < total; i++ {
			cl := client.NewUDP(b.Sim(), cfg.Classes[classOf[i]].Enc.Clip.FrameCount())
			cl.Pool, cl.Scratch = b.Pool(), cfg.Recv
			cl.Tolerance = client.SliceTolerance
			m.Clients = append(m.Clients, cl)
			name := fmt.Sprintf("client%d", i)
			if cfg.Trace != nil {
				cl.Tap, cl.Hop = cfg.Trace, cfg.Trace.Hop(name)
			}
			b.Handler(name, cl)
			b.Rule("demux", name, node.FlowMatch(flowID(i)), name)
		}
	}

	b.Link("bottleneck", LinkSpec{
		Rate: cfg.BottleneckRate, Delay: 5 * units.Millisecond,
		Sched: cfg.Sched.spec(400), To: "demux",
	})

	// Send side: per-flow EF policers, constructed directly rather than
	// through the builder's name map — at six-figure flow counts the
	// O(N) string-keyed declarations dominate build time, and policers
	// consume no RNG, so direct construction preserves bit-identity
	// with a builder declaration. Their next hop (the bottleneck) is
	// wired after Build. Unbatched builds still declare the per-flow
	// jitter + access-hub chains by name so the jitter targets resolve.
	// The policers live in one contiguous slice (with their buckets
	// embedded) — class-major flow order means a burst of
	// near-simultaneous arrivals from neighbouring flows hits adjacent
	// cache lines, which at 200k flows is the difference between a
	// policer check that costs a cache miss and one that doesn't.
	m.Policers = make([]*tokenbucket.Policer, total)
	pols := make([]tokenbucket.Policer, total)
	for i := 0; i < total; i++ {
		fc := &cfg.Classes[classOf[i]]
		depth := fc.Depth
		if depth == 0 {
			depth = cfg.Depth
		}
		pol := &pols[i]
		pol.Init(b.Sim(), fc.TokenRate, depth, packet.EF, nil)
		pol.Pool = b.Pool()
		if cfg.Trace != nil {
			pol.Tap, pol.Hop = cfg.Trace, cfg.Trace.Hop(fmt.Sprintf("policer%d", i))
		}
		m.Policers[i] = pol
		if cfg.Batch {
			continue
		}
		jit := fmt.Sprintf("jit%d", i)
		hub := fmt.Sprintf("hub%d", i)
		b.Handler(fmt.Sprintf("policer%d", i), pol)
		b.Jitter(jit, accessJitterMax, fmt.Sprintf("policer%d", i))
		b.Link(hub, LinkSpec{Rate: accessRate, Delay: accessDelay,
			Sched: PlainFIFO(0), To: jit})
	}

	// Competing aggregates at the bottleneck (declared last, so the
	// Poisson RNG forks keep their order). Their flow ids sit just past
	// the video range — fixed ids such as 900/901 collide with video
	// flows once a population passes a few hundred flows and leak cross
	// traffic into a client's or a class aggregate's counters.
	crossFlow := VideoFlow + packet.FlowID(total)
	if cfg.AFLoad > 0 {
		b.Source("af-cross", SourceSpec{
			Kind: PoissonSource, Rate: units.BitRate(cfg.AFLoad * float64(cfg.BottleneckRate)),
			Size: units.EthernetMTU, Flow: crossFlow, DSCP: packet.AF12, To: "bottleneck",
		})
	}
	if cfg.BELoad > 0 {
		b.Source("be-cross", SourceSpec{
			Kind: PoissonSource, Rate: units.BitRate(cfg.BELoad * float64(cfg.BottleneckRate)),
			Size: units.EthernetMTU, Flow: crossFlow + 1, DSCP: packet.BestEffort, To: "bottleneck",
		})
	}

	net := b.MustBuild()
	m.Net = net
	m.Bottleneck = net.Link("bottleneck")
	bottleneck := net.Handler("bottleneck")
	for _, pol := range m.Policers {
		pol.SetNext(bottleneck)
	}

	if cfg.Batch {
		nexts := make([]packet.Handler, total)
		for i := range nexts {
			nexts[i] = m.Policers[i]
		}
		m.Mixture = &flowbatch.BatchedMixture{
			Sim: m.Sim, Classes: classes, BaseFlow: VideoFlow,
			Next: nexts, Pool: net.Pool,
		}
		if cfg.Trace != nil {
			m.Mixture.Tap, m.Mixture.Hop = cfg.Trace, cfg.Trace.Hop("vflows")
		}
	} else {
		for i := 0; i < total; i++ {
			m.Servers = append(m.Servers, &server.Paced{
				Sim: m.Sim, Enc: cfg.Classes[classOf[i]].Enc, Flow: flowID(i),
				Next: net.Handler(fmt.Sprintf("hub%d", i)),
				Pool: net.Pool,
			})
		}
	}
	return m
}

// runShardedMixture executes a batched run on the fan-out pipeline of
// shard.go: per-class base walks feed per-flow shifted arrival streams
// (flows dealt round-robin so staggered starts spread evenly across
// workers; any ascending per-shard assignment preserves the global
// (time, flow) merge order), one sequencer draws the jitter of every
// class in exact global order, and the border replays the merged
// deliveries — bit-identical to the serial run at any shard count (the
// shardeq tests pin this).
func (m *MultiFlow) runShardedMixture(shards int, horizon units.Time) ShardStats {
	sas, seq, w := m.fanoutStages(shards, horizon)
	return runFanoutPipeline(m.Sim, sas, seq, w, horizon, m.Mixture.Inject)
}

// fanoutStages readies the mixture for replay and builds the
// pipeline's stages: the initialized per-shard arrival walks, the
// sequencer and the lookahead window width.
func (m *MultiFlow) fanoutStages(shards int, horizon units.Time) ([]*flowbatch.ShardArrivals, *flowbatch.JitterSequencer, units.Time) {
	mix := m.Mixture
	mix.InitReplay()
	n := mix.TotalFlows()
	s := shards
	if s > n {
		s = n
	}

	// One base walk per class (shift-invariance within a class); the
	// lookahead window is the narrowest any class requires, so every
	// class's arrivals are final at the shared frontier.
	bases := make([][]units.Time, len(mix.Classes))
	jmOf := make([]units.Time, n)
	var w units.Time
	for ci := range mix.Classes {
		c := &mix.Classes[ci]
		bases[ci] = flowbatch.BaseArrivals(c.Sched, c.Chain)
		cw := lookaheadWindow(c.Chain.AccessRate, c.Chain.AccessDelay, minEntrySize(c.Sched))
		if w == 0 || cw < w {
			w = cw
		}
	}
	for g := 0; g < n; g++ {
		jmOf[g] = mix.Classes[mix.ClassOf(g)].Chain.JitterMax
	}

	sas := make([]*flowbatch.ShardArrivals, s)
	for i := 0; i < s; i++ {
		k := (n - i + s - 1) / s
		sa := &flowbatch.ShardArrivals{Horizon: horizon, Flows: make([]int32, 0, k),
			Start: make([]units.Time, 0, k), Bases: make([][]units.Time, 0, k)}
		for f := i; f < n; f += s {
			sa.Flows = append(sa.Flows, int32(f))
			sa.Start = append(sa.Start, mix.StartOf(f))
			sa.Bases = append(sa.Bases, bases[mix.ClassOf(f)])
		}
		sa.Init()
		sas[i] = sa
	}
	seq := &flowbatch.JitterSequencer{RNG: m.Sim.RNG(), JitterMaxOf: jmOf, Horizon: horizon}
	seq.Init()
	return sas, seq, w
}

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
// rows of the equivalence harness cover homogeneous runs and mixtures
// alike.
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

// classDemux routes delivered packets to their class aggregate: video
// flows carry class-major indices off base, so a flow's class is the
// first whose end bound exceeds its index — a search over the K class
// bounds, with no per-flow table. Anything else (cross traffic) is
// absorbed by the sink.
type classDemux struct {
	base packet.FlowID
	ends []int64 // class ci owns flow indices [ends[ci-1], ends[ci])
	aggs []*client.Aggregate
	sink packet.Handler
}

// Handle implements packet.Handler.
func (d *classDemux) Handle(p *packet.Packet) {
	i := int64(p.Flow - d.base)
	if i < 0 || i >= d.ends[len(d.ends)-1] {
		d.sink.Handle(p)
		return
	}
	lo, hi := 0, len(d.ends)-1
	for lo < hi {
		if mid := (lo + hi) / 2; i < d.ends[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	d.aggs[lo].Handle(p)
}

// policerBank is a batched mixture's one next hop: it hands each
// virtual flow's packet to that flow's policer in the contiguous
// class-major slice, indexed off base, so the fan-out keeps no
// per-flow handler table.
type policerBank struct {
	base packet.FlowID
	pols []tokenbucket.Policer
}

// Handle implements packet.Handler.
func (b *policerBank) Handle(p *packet.Packet) { b.pols[p.Flow-b.base].Handle(p) }

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
	var drained units.Time
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
		// +5 s drains in-flight delivery after the last emission (access
		// chain + jitter + bottleneck queue + propagation are all
		// millisecond-scale; a 30 s tail would be paid in cross-traffic
		// events at every point of a fleet sweep).
		span := units.Time(0)
		if n := len(sched.Entries); n > 0 {
			span = sched.Entries[n-1].At
		}
		if end := fc.Phase + units.Time(int64(fc.N))*stagger + span + units.FromSeconds(5); end > drained {
			drained = end
		}
	}
	if horizon == 0 {
		horizon = drained
	}

	b := NewBuilder(cfg.Seed, Env{Sim: cfg.Sim, Pool: cfg.Pool, Recv: cfg.Recv, Trace: cfg.Trace})
	m := &MultiFlow{Sim: b.Sim(), shards: cfg.Shards, ClassNames: names, horizon: horizon}

	// Hop ids follow declaration order: the receivers (one aggregate
	// per class, or one client per flow), the policers, sink, demux and
	// bottleneck, then the unbatched access chains. Flows are
	// class-major, and per-flow tables are laid out only where a branch
	// reads them: the batched mixture keeps its own flow layout.
	var clientNames []string
	if cfg.AggregateStats {
		m.Aggregates = make([]*client.Aggregate, k)
		for ci := range m.Aggregates {
			m.Aggregates[ci] = client.NewAggregate(b.Sim())
			b.Handler("agg-"+names[ci], m.Aggregates[ci])
		}
	} else {
		m.Clients = make([]*client.UDP, total)
		clientNames = make([]string, total)
		i := 0
		for _, fc := range cfg.Classes {
			frames := fc.Enc.Clip.FrameCount()
			for j := 0; j < fc.N; j, i = j+1, i+1 {
				m.Clients[i] = client.NewUDP(b.Sim(), frames)
				clientNames[i] = fmt.Sprintf("client%d", i)
				b.Handler(clientNames[i], m.Clients[i])
			}
		}
	}

	// Send side: per-flow EF policers, constructed directly rather than
	// through the builder's name map — at six-figure flow counts the
	// O(N) string-keyed declarations dominate build time, and policers
	// consume no RNG, so direct construction preserves bit-identity
	// with a builder declaration. A batched build therefore lends and
	// taps them by hand; an unbatched one declares each by name, since
	// its per-flow access chain targets it. Their next hop (the
	// bottleneck) is wired after Build. Each class's policers share one
	// profile (rate, depth, mark, next hop, pool, tap) and live in one
	// contiguous slice of one-cache-line policers — class-major flow
	// order means a burst of near-simultaneous arrivals from
	// neighbouring flows hits adjacent lines, and the check touches the
	// flow's own line and a profile that stays in cache.
	profs := make([]tokenbucket.Profile, k)
	pols := make([]tokenbucket.Policer, total)
	m.Policers = make([]*tokenbucket.Policer, total)
	i := 0
	for ci := range cfg.Classes {
		fc := &cfg.Classes[ci]
		depth := fc.Depth
		if depth == 0 {
			depth = cfg.Depth
		}
		prof := &profs[ci]
		prof.Init(b.Sim(), fc.TokenRate, depth, packet.EF, nil)
		prof.Pool = b.Pool()
		if cfg.Batch && cfg.Trace != nil {
			prof.Tap = cfg.Trace
		}
		for j := 0; j < fc.N; j, i = j+1, i+1 {
			pol := &pols[i]
			pol.InitShared(prof)
			m.Policers[i] = pol
			switch {
			case !cfg.Batch:
				b.Handler(fmt.Sprintf("policer%d", i), pol)
			case cfg.Trace != nil:
				pol.Hop = cfg.Trace.Hop(fmt.Sprintf("policer%d", i))
			}
		}
	}

	// Receive side: the demux hands each video flow to its receiver
	// and the cross traffic to the sink.
	sink := packet.Sink{Pool: b.Pool()}
	b.Handler("sink", &sink)
	if cfg.AggregateStats {
		ends := make([]int64, k)
		for ci, end := 0, int64(0); ci < k; ci++ {
			end += int64(cfg.Classes[ci].N)
			ends[ci] = end
		}
		b.Handler("demux", &classDemux{
			base: VideoFlow, ends: ends, aggs: m.Aggregates, sink: &sink,
		})
	} else {
		b.Router("demux", "sink")
		for i, name := range clientNames {
			b.Rule("demux", name, node.FlowMatch(flowID(i)), name)
		}
	}

	b.Link("bottleneck", LinkSpec{
		Rate: cfg.BottleneckRate, Delay: 5 * units.Millisecond,
		Sched: cfg.Sched.scheduler(400), To: "demux",
	})

	// Unbatched builds declare the per-flow jitter + access-hub chains
	// by name, so the jitter targets resolve.
	if !cfg.Batch {
		for i := 0; i < total; i++ {
			jit := fmt.Sprintf("jit%d", i)
			b.Jitter(jit, accessJitterMax, fmt.Sprintf("policer%d", i))
			b.Link(fmt.Sprintf("hub%d", i), LinkSpec{Rate: accessRate, Delay: accessDelay, To: jit})
		}
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

	net := b.mustBuild()
	m.Net = net
	m.Bottleneck = net.Link("bottleneck")
	bottleneck := net.Handler("bottleneck")
	for ci := range profs {
		profs[ci].SetNext(bottleneck)
	}

	if cfg.Batch {
		m.Mixture = &flowbatch.BatchedMixture{
			Sim: m.Sim, Classes: classes, BaseFlow: VideoFlow,
			Next: []packet.Handler{&policerBank{base: VideoFlow, pols: pols}}, Pool: net.Pool,
		}
		if cfg.Trace != nil {
			m.Mixture.Tap, m.Mixture.Hop = cfg.Trace, cfg.Trace.Hop("vflows")
		}
		return m
	}
	m.starts = make([]units.Time, 0, total)
	for ci, c := range classes {
		for j := 0; j < c.N; j++ {
			i := len(m.Servers)
			m.starts = append(m.starts, c.Phase+units.Time(int64(j))*c.Offset)
			m.Servers = append(m.Servers, &server.Paced{
				Sim: m.Sim, Enc: cfg.Classes[ci].Enc, Flow: flowID(i),
				Next: net.Handler(fmt.Sprintf("hub%d", i)),
				Pool: net.Pool,
			})
		}
	}
	return m
}

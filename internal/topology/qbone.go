// Package topology assembles the simulated networks the experiments
// run on. The declarative Builder ("builder.go") is the general
// mechanism: declare named links, routers, conditioning elements,
// traffic sources and taps, then Build() wires the graph and hands
// back handles. The paper's two testbeds — the QBone wide-area path
// (Fig. 5) and the local three-router Frame Relay testbed (Fig. 4) —
// plus the Assured Forwarding extension and the N-flow scaling
// topology are thin presets over that builder.
package topology

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/link"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokenbucket"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// VideoFlow is the flow id the experiments' video connection uses.
const VideoFlow packet.FlowID = 1

// QBoneConfig parameterizes the wide-area experiment (Figs. 7–14).
type QBoneConfig struct {
	Seed      uint64
	Enc       *video.Encoding
	TokenRate units.BitRate   // APS profile peak rate
	Depth     units.ByteSize  // APS profile burst size (3000 or 4500)
	Shape     bool            // shape instead of drop at the border
	Pool      *packet.Pool    // packet arena; nil builds a fresh one
	Sim       *sim.Simulator  // simulator lent by the worker, Reset to Seed; nil builds a fresh one
	Recv      *client.Scratch // receive storage lent by the worker; nil allocates
	// Trace, when set, records packet-level events from every element
	// of the path (and the client) into the given bounded recorder.
	Trace *ptrace.Recorder

	Hops         int        // backbone hops; default 4
	CampusJitter units.Time // pre-policer jitter (§3.2); default campusJitter
	// CrossLoad is each cross source's own rate as a fraction of a hop's
	// (default crossLoad). The sources add up downstream: hop k carries
	// those of hops 0…k, so the sum, not CrossLoad, is what a hop serves
	// (see crossLoad).
	CrossLoad float64
}

// The wide-area path's fixed parameters (Fig. 5), shared by the tandem
// preset that extends it to two domains.
const (
	hopRate      = 45 * units.Mbps       // backbone hop
	hopDelay     = 5 * units.Millisecond // propagation per backbone hop
	campusJitter = 5 * units.Millisecond // campus segment ahead of the border
	clientAccess = 10 * units.Mbps       // client access link

	// crossLoad is each hop's cross source's own rate as a fraction of
	// the hop rate. Every source's packets ride every later hop to the
	// client, so hop k is offered (k+1) × 15 %: hop 3 of the default
	// four runs ~60 % best effort, and the 10 Mb/s access link is offered
	// ~27 Mb/s (4 × 6.75 Mb/s) and drops most of it.
	crossLoad = 0.15
)

func (c QBoneConfig) withDefaults() QBoneConfig {
	if c.Hops == 0 {
		c.Hops = 4
	}
	if c.CampusJitter == 0 {
		c.CampusJitter = campusJitter
	}
	if c.CrossLoad == 0 {
		c.CrossLoad = crossLoad
	}
	return c
}

// QBone is a built wide-area experiment ready to run. Hops and Cross
// are both indexed ingress-first: Hops[0] is the first backbone hop
// after the border conditioner and Cross[i] is the source injecting at
// Hops[i] (flow id 1000+i).
//
// An untraced QBone with cross traffic computes its line: every hop and
// the access link is a lazy port (see package link), each Cross source
// is Pulled, and the client counts the best effort that reaches it
// without receiving it. The border's hand-off of an EF packet to
// Hops[0] carries it through every port to the delay tap and the client,
// which take it at its computed arrival instant; no port schedules an
// event. A traced QBone carries every packet, since its trace records
// them; so it is the per-packet reference the lazy line is checked
// against. Both leave the same counters, client trace, delay samples and
// clock when Run returns. RunVideo leaves the same client trace, delay
// samples, border counts and clock, and stops a lazy line's best effort
// at the last video packet.
type QBone struct {
	Sim     *sim.Simulator
	Net     *Network
	Server  *server.Paced
	Client  *client.UDP
	Policer *tokenbucket.Policer
	Shaper  *tokenbucket.Shaper
	Hops    []*link.Link
	Cross   []*traffic.Poisson

	// Delay records one-way delay and jitter of everything reaching
	// the client — the network-level EF service quality (§2: EF's
	// promise is low loss, low delay, low jitter).
	Delay *stats.DelayCollector

	access *link.Link // the line's last port, when the ports are lazy
}

// BuildQBone declares Fig. 5 on the Builder: the Video Charger server
// at the remote campus, campus jitter, the border CAR policer (drop,
// or shaper when cfg.Shape), cfg.Hops backbone routers with EF
// priority queues and best-effort cross traffic, and the client behind
// its access link.
func BuildQBone(cfg QBoneConfig) *QBone {
	cfg = cfg.withDefaults()
	lazy := cfg.Trace == nil && cfg.CrossLoad > 0
	b := NewBuilder(cfg.Seed, Env{Sim: cfg.Sim, Pool: cfg.Pool, Recv: cfg.Recv, Trace: cfg.Trace})
	q := &QBone{Sim: b.Sim(), Client: client.NewUDP(b.Sim(), cfg.Enc.Clip.FrameCount())}
	b.Handler("client", q.Client)
	b.delayTap("delay", func(p *packet.Packet) bool { return p.Flow == VideoFlow }, "client")
	b.link("access", LinkSpec{Rate: clientAccess, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(0, 200), To: "delay"}, lazy)

	// Backbone hops, declared client-side first so cross sources start
	// in the same order the hand-wired constructor used. Core routers
	// classify on DSCP only (§3.2.1.2): EF to the high queue, the rest
	// best effort — which the EF priority scheduler does by
	// construction, so each hop router is just its output link.
	for i := cfg.Hops - 1; i >= 0; i-- {
		to := "access"
		if i < cfg.Hops-1 {
			to = hopName(i + 1)
		}
		b.link(hopName(i), LinkSpec{Rate: hopRate, Delay: hopDelay,
			Sched: queue.NewEFPriority(400, 400), To: to}, lazy)
		if cfg.CrossLoad > 0 {
			cross := crossName(i)
			b.Source(cross, SourceSpec{
				Kind: PoissonSource,
				Rate: units.BitRate(cfg.CrossLoad * float64(hopRate)),
				Size: units.EthernetMTU, Flow: packet.FlowID(1000 + i),
				DSCP: packet.BestEffort, To: hopName(i),
			})
			b.declared(cross).(*traffic.Poisson).Pulled = lazy
		}
	}

	// Border conditioning: Cisco CAR configured to drop out-of-profile
	// packets (§3.2.2), or a shaper for the ablation.
	conditioner := "policer"
	if cfg.Shape {
		conditioner = "shaper"
		b.Shaper("shaper", cfg.TokenRate, cfg.Depth, packet.EF, 0, hopName(0))
	} else {
		b.Policer("policer", cfg.TokenRate, cfg.Depth, packet.EF, hopName(0))
	}
	b.Router("border", hopName(0))
	b.Rule("border", "video-aps", node.FlowMatch(VideoFlow), conditioner)

	// Campus segment: fast LAN plus the jitter the paper identifies as
	// the reason conformance at the policer is perturbed.
	b.Jitter("jit", cfg.CampusJitter, "border")
	b.Link("campus", LinkSpec{Rate: 100 * units.Mbps, Delay: 500 * units.Microsecond, To: "jit"})

	net := b.mustBuild()
	q.Net = net
	q.Delay = net.delayTap("delay")
	cfg.Recv.LendDelays(q.Delay)
	if cfg.Shape {
		q.Shaper = net.shaper("shaper")
	} else {
		q.Policer = net.Policer("policer")
	}
	for i := 0; i < cfg.Hops; i++ {
		q.Hops = append(q.Hops, net.Link(hopName(i)))
		if cfg.CrossLoad > 0 {
			q.Cross = append(q.Cross, net.Poisson(crossName(i)))
		}
	}
	if lazy {
		var up *link.Link
		for i, h := range q.Hops {
			h.LazyBestEffort(up, q.Cross[i], nil)
			up = h
		}
		q.access = net.Link("access")
		q.access.LazyBestEffort(up, nil, q.Client)
	}

	q.Server = &server.Paced{
		Sim: q.Sim, Enc: cfg.Enc, Flow: VideoFlow,
		Next: net.Handler("campus"), Pool: net.Pool,
	}
	return q
}

func hopName(i int) string   { return fmt.Sprintf("hop%d", i) }
func crossName(i int) string { return fmt.Sprintf("cross%d", i) }

// Run starts the server, runs the simulation to its horizon (the clip
// plus 30 s) and resolves the client's frame trace. On a lazy line it
// computes every port up to the horizon, so each counter, the best
// effort's included, reads as a per-packet run's.
func (q *QBone) Run() { q.runClip(true) }

// RunVideo is Run for a caller that reads only the video's outcome: the
// client's frame trace, the delay collector and the border's counts. A
// lazy line fixes each EF packet's whole passage when the border hands
// it to hop 0, so once the calendar empties every video outcome is
// final; RunVideo then leaves the clock at the horizon without
// computing the best effort that is left. The best-effort counters of
// the ports, cross sources and client stop at the last video packet,
// each at most Run's. On a per-packet QBone it is Run.
func (q *QBone) RunVideo() { q.runClip(false) }

func (q *QBone) runClip(flush bool) {
	q.Server.Start()
	q.run(units.FromSeconds(q.Server.Enc.Clip.DurationSeconds()+30), flush)
	q.Client.Finish()
}

// run executes the simulation up to horizon and leaves the clock there.
// A lazy line's cross sources schedule nothing, so the calendar may
// empty before it; with flush, its ports are then computed up to it.
func (q *QBone) run(horizon units.Time, flush bool) {
	q.Sim.SetHorizon(horizon)
	q.Sim.Run()
	if q.access != nil {
		q.Sim.AdvanceTo(horizon)
		if flush {
			q.access.Flush(horizon)
		}
	}
}

// Ties counts the same-instant orderings the lazy ports could not
// resolve (link.Link.Ties); 0 on a per-packet run. After RunVideo it
// counts only those up to the last video packet: a later one could move
// only best-effort counters, which RunVideo does not compute.
func (q *QBone) Ties() int {
	if q.access == nil {
		return 0
	}
	n := q.access.Ties()
	for _, h := range q.Hops {
		n += h.Ties()
	}
	return n
}

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
	CrossLoad    float64    // best-effort load fraction per hop; default crossLoad
}

// The wide-area path's fixed parameters (Fig. 5), shared by the tandem
// preset that extends it to two domains.
const (
	hopRate      = 45 * units.Mbps       // backbone hop
	hopDelay     = 5 * units.Millisecond // propagation per backbone hop
	campusJitter = 5 * units.Millisecond // campus segment ahead of the border
	crossLoad    = 0.15                  // best-effort load fraction per hop
	clientAccess = 10 * units.Mbps       // client access link
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
}

// BuildQBone declares Fig. 5 on the Builder: the Video Charger server
// at the remote campus, campus jitter, the border CAR policer (drop,
// or shaper when cfg.Shape), cfg.Hops backbone routers with EF
// priority queues and best-effort cross traffic, and the client behind
// its access link.
func BuildQBone(cfg QBoneConfig) *QBone {
	cfg = cfg.withDefaults()
	b := NewBuilder(cfg.Seed, cfg.Sim, cfg.Pool)
	b.UseTrace(cfg.Trace)
	q := &QBone{Sim: b.Sim()}

	cl := client.NewUDP(b.Sim(), cfg.Enc.Clip.FrameCount())
	cl.Pool, cl.Scratch = b.Pool(), cfg.Recv
	if cfg.Trace != nil {
		cl.Tap, cl.Hop = cfg.Trace, cfg.Trace.Hop("client")
	}
	q.Client = cl
	b.Handler("client", cl)
	b.delayTap("delay", func(p *packet.Packet) bool { return p.Flow == VideoFlow }, "client")
	b.Link("access", LinkSpec{Rate: clientAccess, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(0, 200), To: "delay"})

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
		b.Link(hopName(i), LinkSpec{Rate: hopRate, Delay: hopDelay,
			Sched: queue.NewEFPriority(400, 400), To: to})
		if cfg.CrossLoad > 0 {
			b.Source(crossName(i), SourceSpec{
				Kind: PoissonSource,
				Rate: units.BitRate(cfg.CrossLoad * float64(hopRate)),
				Size: units.EthernetMTU, Flow: packet.FlowID(1000 + i),
				DSCP: packet.BestEffort, To: hopName(i),
			})
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

	q.Server = &server.Paced{
		Sim: q.Sim, Enc: cfg.Enc, Flow: VideoFlow,
		Next: net.Handler("campus"), Pool: net.Pool,
	}
	return q
}

func hopName(i int) string   { return fmt.Sprintf("hop%d", i) }
func crossName(i int) string { return fmt.Sprintf("cross%d", i) }

// Run starts the server and executes the simulation to completion,
// returning the client's sorted frame trace.
func (q *QBone) Run() {
	q.Server.Start()
	horizon := units.FromSeconds(q.Server.Enc.Clip.DurationSeconds() + 30)
	q.Sim.SetHorizon(horizon)
	q.Sim.Run()
	q.Client.Finish()
}

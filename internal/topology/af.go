package topology

import (
	"repro/internal/client"
	"repro/internal/link"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
)

// AFConfig parameterizes the Assured Forwarding extension experiment.
// The paper ran preliminary AF tests but deferred them because "the
// results were heavily dependent on the level of cross traffic and its
// impact on the performance given to marked packets" (§2.1) — which is
// exactly the sensitivity this topology exposes: an srTCM colors the
// video at the edge, a congested bottleneck hop runs RIO, and the
// AFLoad knob controls how much *other* AF traffic competes inside the
// class.
type AFConfig struct {
	Seed  uint64
	Enc   *video.Encoding
	Pool  *packet.Pool     // packet arena; nil builds a fresh one
	Sim   *sim.Simulator   // simulator lent by the worker, Reset to Seed; nil builds a fresh one
	Recv  *client.Scratch  // receive storage lent by the worker; nil allocates
	Trace *ptrace.Recorder // packet-level recorder for every element and the client; nil disables

	CIR    units.BitRate // committed rate of the video's srTCM profile
	AFLoad float64       // competing in-class AF load fraction; default 0.3
}

// The AF experiment's fixed parameters.
const (
	afCBS        units.ByteSize = 3000 // srTCM committed burst
	afEBS        units.ByteSize = 6000 // srTCM excess burst
	afBottleneck                = 5 * units.Mbps
	afBELoad                    = 0.4 // best-effort load fraction of the bottleneck
)

func (c AFConfig) withDefaults() AFConfig {
	if c.AFLoad == 0 {
		c.AFLoad = 0.3
	}
	return c
}

// AF is a built Assured Forwarding experiment.
type AF struct {
	Sim        *sim.Simulator
	Net        *Network
	Server     *server.Paced
	Client     *client.UDP
	Marker     *tokenbucket.AFMarker
	Bottleneck *link.Link
	Sched      *queue.AFScheduler
}

// BuildAF declares on the Builder: paced server → srTCM marker
// (green/yellow/red → AF11/12/13) → bottleneck link with a RIO AF
// queue and competing AF-marked and best-effort cross traffic → client
// access → client. Unlike EF, nothing is dropped at the edge:
// conformance only changes the drop precedence inside the network.
func BuildAF(cfg AFConfig) *AF {
	cfg = cfg.withDefaults()
	b := NewBuilder(cfg.Seed, Env{Sim: cfg.Sim, Pool: cfg.Pool, Recv: cfg.Recv, Trace: cfg.Trace})
	a := &AF{Sim: b.Sim(), Client: client.NewUDP(b.Sim(), cfg.Enc.Clip.FrameCount())}
	b.Handler("client", a.Client)
	b.Link("access", LinkSpec{Rate: 10 * units.Mbps, Delay: units.Millisecond, To: "client"})

	// Bottleneck with the AF PHB: in-profile (green) protected by the
	// permissive RIO profile, yellow/red exposed to the congestion.
	in := queue.REDConfig{MinTh: 40, MaxTh: 60, MaxP: 0.02, Wq: 0.002, MaxSize: 80}
	out := queue.REDConfig{MinTh: 8, MaxTh: 25, MaxP: 0.3, Wq: 0.002, MaxSize: 80}
	b.Link("bottleneck", LinkSpec{Rate: afBottleneck, Delay: 5 * units.Millisecond,
		Sched: queue.NewAFScheduler(in, out, b.Sim().RNG().Fork().Float64, 100), To: "access"})

	// Competing traffic: an AF-marked aggregate (alternating colors —
	// someone else's partially conformant traffic) and best effort.
	if cfg.AFLoad > 0 {
		b.Source("af-cross", SourceSpec{
			Kind: PoissonSource, Rate: units.BitRate(cfg.AFLoad * float64(afBottleneck)),
			Size: units.EthernetMTU, Flow: 900, DSCP: packet.AF12, To: "bottleneck",
		})
	}
	b.Source("be-cross", SourceSpec{
		Kind: PoissonSource, Rate: afBELoad * afBottleneck,
		Size: units.EthernetMTU, Flow: 901, DSCP: packet.BestEffort, To: "bottleneck",
	})

	// Edge: classify the video flow into the srTCM marker.
	b.afMarkerSR("marker", cfg.CIR, afCBS, afEBS, "bottleneck")
	b.Router("af-edge", "bottleneck")
	b.Rule("af-edge", "video-af", node.FlowMatch(VideoFlow), "marker")

	b.Jitter("jit", 3*units.Millisecond, "af-edge")
	b.Link("campus", LinkSpec{Rate: 100 * units.Mbps, Delay: 500 * units.Microsecond, To: "jit"})

	net := b.mustBuild()
	a.Net = net
	a.Marker = net.afMarker("marker")
	a.Bottleneck = net.Link("bottleneck")
	a.Sched = a.Bottleneck.Sched.(*queue.AFScheduler)

	a.Server = &server.Paced{Sim: a.Sim, Enc: cfg.Enc, Flow: VideoFlow, Next: net.Handler("campus"), Pool: net.Pool}
	return a
}

// Run executes the experiment.
func (a *AF) Run() {
	a.Server.Start()
	horizon := units.FromSeconds(a.Server.Enc.Clip.DurationSeconds() + 30)
	a.Sim.SetHorizon(horizon)
	a.Sim.Run()
	a.Client.Finish()
}

package topology

import (
	"fmt"

	"repro/internal/client"
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

// TandemConfig parameterizes the multi-bottleneck topology: two
// DiffServ domains in tandem, each guarding its ingress with an EF
// token-bucket policer. Traffic that conforms at the first border is
// re-clocked by the queues of the first domain's hops — EF burst
// accumulation — so by the time it reaches the second border its
// spacing no longer matches the profile it was shaped to, and the
// second policer drops packets the first one passed. This is the
// inter-domain effect a single-bottleneck testbed cannot show.
type TandemConfig struct {
	Seed uint64
	Enc  *video.Encoding
	Pool *packet.Pool    // packet arena; nil builds a fresh one
	Sim  *sim.Simulator  // simulator lent by the worker, Reset to Seed; nil builds a fresh one
	Recv *client.Scratch // receive storage lent by the worker; nil allocates
	// Trace, when set, records packet-level events from every element
	// (both policers, every hop, the client) into the bounded
	// recorder — the natural input for cmd/dstrace.
	Trace *ptrace.Recorder

	TokenRate units.BitRate  // APS profile rate, applied at both borders
	Depth     units.ByteSize // APS profile burst, applied at both borders

	// SecondBorder inserts the second domain's ingress policer, with
	// the same contracted profile as the first. With it false the
	// second domain trusts the first (the single-border baseline the
	// tandem series is compared against).
	SecondBorder bool
}

// The tandem path's own parameters; the rest are QBone's.
const (
	// interJitter models the uncontrolled peering segment between the
	// domains — the tandem analog of the campus jitter ahead of border
	// 1: clumping it introduces is what pushes border-1-conformant
	// traffic out of profile at border 2.
	interJitter   = 3 * units.Millisecond
	hopsPerDomain = 2                                           // backbone hops per domain
	crossRate     = units.BitRate(crossLoad * float64(hopRate)) // best-effort load per hop
)

// Tandem is a built two-domain experiment.
type Tandem struct {
	Sim     *sim.Simulator
	Net     *Network
	Server  *server.Paced
	Client  *client.UDP
	Border1 *tokenbucket.Policer
	Border2 *tokenbucket.Policer // nil without SecondBorder
}

func domainHop(d, i int) string { return fmt.Sprintf("d%dhop%d", d, i) }

// BuildTandem declares the two-domain graph on the Builder, client
// side first (matching the QBone preset's source-start order): server
// → campus → jitter → border1 policer → domain-1 hops → [border2
// policer] → domain-2 hops → access → client. Cross traffic loads
// every hop of both domains, so domain-1 queueing perturbs the EF
// spacing border2 measures.
func BuildTandem(cfg TandemConfig) *Tandem {
	b := NewBuilder(cfg.Seed, Env{Sim: cfg.Sim, Pool: cfg.Pool, Recv: cfg.Recv, Trace: cfg.Trace})
	t := &Tandem{Sim: b.Sim(), Client: client.NewUDP(b.Sim(), cfg.Enc.Clip.FrameCount())}
	b.Handler("client", t.Client)
	b.Link("access", LinkSpec{Rate: clientAccess, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(0, 200), To: "client"})

	// hops declares domain d's backbone hops client side first, the
	// last handing off to next, each loaded by best-effort cross
	// traffic with flow ids from flowBase.
	hops := func(d int, next string, flowBase packet.FlowID) {
		for i := hopsPerDomain - 1; i >= 0; i-- {
			to := next
			if i < hopsPerDomain-1 {
				to = domainHop(d, i+1)
			}
			b.Link(domainHop(d, i), LinkSpec{Rate: hopRate, Delay: hopDelay,
				Sched: queue.NewEFPriority(400, 400), To: to})
			b.Source(domainHop(d, i)+"-cross", SourceSpec{
				Kind: PoissonSource, Rate: crossRate,
				Size: units.EthernetMTU, Flow: flowBase + packet.FlowID(i),
				DSCP: packet.BestEffort, To: domainHop(d, i),
			})
		}
	}
	hops(2, "access", 2000)

	// Border 2: the second domain's ingress re-polices the EF
	// aggregate against the contracted profile (or trusts domain 1
	// when SecondBorder is off). The peering segment's jitter sits in
	// front of it either way, so the baseline differs only in the
	// policer itself.
	domain2 := domainHop(2, 0)
	if cfg.SecondBorder {
		b.Policer("border2", cfg.TokenRate, cfg.Depth, packet.EF, domain2)
		b.Router("interdomain", domain2)
		b.Rule("interdomain", "ef-resign", node.DSCPMatch(packet.EF), "border2")
		domain2 = "interdomain"
	}
	b.Jitter("peering", interJitter, domain2)
	domain2 = "peering"

	// Domain 1 hands off to domain 2.
	hops(1, domain2, 1000)

	// Border 1: the sender-side campus edge, exactly the QBone CAR.
	b.Policer("border1", cfg.TokenRate, cfg.Depth, packet.EF, domainHop(1, 0))
	b.Router("border", domainHop(1, 0))
	b.Rule("border", "video-aps", node.FlowMatch(VideoFlow), "border1")
	b.Jitter("jit", campusJitter, "border")
	b.Link("campus", LinkSpec{Rate: 100 * units.Mbps, Delay: 500 * units.Microsecond, To: "jit"})

	net := b.mustBuild()
	t.Net = net
	t.Border1 = net.Policer("border1")
	if cfg.SecondBorder {
		t.Border2 = net.Policer("border2")
	}
	t.Server = &server.Paced{
		Sim: t.Sim, Enc: cfg.Enc, Flow: VideoFlow,
		Next: net.Handler("campus"), Pool: net.Pool,
	}
	return t
}

// Run starts the server and executes the simulation to completion.
func (t *Tandem) Run() {
	t.Server.Start()
	t.Sim.SetHorizon(units.FromSeconds(t.Server.Enc.Clip.DurationSeconds() + 30))
	t.Sim.Run()
	t.Client.Finish()
}

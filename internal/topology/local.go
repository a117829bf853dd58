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
	"repro/internal/tcpsim"
	"repro/internal/tokenbucket"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// LocalConfig parameterizes the local-testbed experiment (Figs. 15–16):
// a Windows Media server streaming the WMV-encoded clip through the
// three-router Frame Relay chain of Fig. 4.
type LocalConfig struct {
	Seed      uint64
	Enc       *video.Encoding
	TokenRate units.BitRate
	Depth     units.ByteSize
	Pool      *packet.Pool    // packet arena; nil builds a fresh one
	Sim       *sim.Simulator  // simulator lent by the worker, Reset to Seed; nil builds a fresh one
	Recv      *client.Scratch // receive storage lent by the worker; nil allocates
	// Trace, when set, records packet-level events (including the TCP
	// sender's send/ACK/RTO in TCP mode) into the bounded recorder.
	Trace *ptrace.Recorder

	UseTCP bool // TCP streaming with server-side thinning (the usable mode)

	// LimitedTransmit enables RFC 3042 on the TCP sender (ablation;
	// the 2001 testbed stacks predate it).
	LimitedTransmit bool

	// UseShaper inserts the Linux shaping router, configured with the
	// policer's profile, between the server and router 1 (Fig. 4 /
	// Table 4 "Shape – Linux router").
	UseShaper bool
}

// hostRate is the server NIC's rate on the 10 Mbps hub of Fig. 4.
const hostRate = 10 * units.Mbps

// Local is a built local-testbed experiment.
type Local struct {
	Sim     *sim.Simulator
	Net     *Network
	Policer *tokenbucket.Policer
	Shaper  *tokenbucket.Shaper

	// UDP mode.
	UDPServer *server.WMTUDP
	UDPClient *client.UDP

	// TCP mode.
	TCPServer *server.WMTTCP
	TCPClient *client.Stream
	Sender    *tcpsim.Sender
	Receiver  *tcpsim.Receiver

	enc *video.Encoding
}

// BuildLocal declares Fig. 4 on the Builder: server host → hub →
// (optional Linux shaper) → router 1 (classifier + EF policer, drop) →
// FR/HSSI 2 Mbps → router 2 → FR/V.35 2 Mbps (the E1 bottleneck) →
// router 3 → client. Router 3 classifies positionally — everything
// goes to its port — so it needs no policy rules and is represented by
// the port link alone.
func BuildLocal(cfg LocalConfig) *Local {
	b := NewBuilder(cfg.Seed, Env{Sim: cfg.Sim, Pool: cfg.Pool, Recv: cfg.Recv, Trace: cfg.Trace})
	l := &Local{Sim: b.Sim(), enc: cfg.Enc}
	frames := cfg.Enc.Clip.FrameCount()

	fr := link.Table1()

	// Receive-side endpoint: a hook into the UDP client, declared once
	// as "client", or a late-bound one into the TCP receiver
	// (constructed after Build).
	if cfg.UseTCP {
		l.TCPClient = client.NewStream(b.Sim(), frames)
		l.TCPClient.Scratch = cfg.Recv
		b.Handler("deliver", packet.HandlerFunc(func(p *packet.Packet) { l.Receiver.Handle(p) }))
	} else {
		l.UDPClient = client.NewUDP(b.Sim(), frames)
		b.Handler("client", l.UDPClient)
		b.Handler("deliver", packet.HandlerFunc(l.UDPClient.Handle))
	}

	// Router 3 → client hub (fast Ethernet), then the FR chain.
	b.Link("hub2", LinkSpec{Rate: 10 * units.Mbps, Delay: 200 * units.Microsecond, To: "deliver"})
	// Each router port is a Frame Relay PVC: CIR with Be=0 behaves as a
	// constant-rate pipe at CIR.
	b.Link("r3port", LinkSpec{Rate: fr[3].CIR, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(100, 100), To: "hub2"})
	b.Link("r2port", LinkSpec{Rate: fr[0].CIR, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(100, 100), To: "r3port"})
	b.Link("r1port", LinkSpec{Rate: fr[2].CIR, Delay: units.Millisecond,
		Sched: queue.NewEFPriority(100, 100), To: "r2port"})

	// Router 1: EF policer on the video flow, everything else straight
	// to the HSSI port.
	b.Policer("policer", cfg.TokenRate, cfg.Depth, packet.EF, "r1port")
	b.Router("router1", "r1port")
	b.Rule("router1", "video", node.FlowMatch(VideoFlow), "policer")

	// Optional Linux shaping router between server hub and router 1.
	ingress := "router1"
	if cfg.UseShaper {
		ingress = "shaper"
		b.Shaper("shaper", cfg.TokenRate, cfg.Depth, packet.BestEffort, 200, "router1")
	}

	// Server hub: host NIC serialization.
	b.Link("hub1", LinkSpec{Rate: hostRate, Delay: 200 * units.Microsecond, To: ingress})

	if cfg.UseTCP {
		// ACKs return over an uncongested reverse path.
		b.Handler("sender-ack", packet.HandlerFunc(func(p *packet.Packet) { l.Sender.HandleAck(p) }))
		b.Link("ackback", LinkSpec{Rate: 10 * units.Mbps, Delay: 2 * units.Millisecond, To: "sender-ack"})
	}

	net := b.mustBuild()
	l.Net = net
	l.Policer = net.Policer("policer")
	if cfg.UseShaper {
		l.Shaper = net.shaper("shaper")
	}

	hub1 := net.Handler("hub1")
	if cfg.UseTCP {
		l.Sender = tcpsim.NewSender(l.Sim, VideoFlow, hub1)
		l.Sender.Pool = net.Pool
		l.Sender.LimitedTransmit = cfg.LimitedTransmit
		if cfg.Trace != nil {
			l.Sender.Tap, l.Sender.Hop = cfg.Trace, cfg.Trace.Hop("tcp-sender")
		}
		asm := &client.StreamAssembler{Scratch: cfg.Recv}
		l.Receiver = tcpsim.NewReceiver(l.Sim, VideoFlow, net.Handler("ackback"), func(n int64) {
			l.TCPClient.OnDelivered(asm, n)
		})
		l.Receiver.Pool = net.Pool
		l.TCPServer = &server.WMTTCP{Sim: l.Sim, Enc: cfg.Enc, Sender: l.Sender, Asm: asm}
	} else {
		l.UDPServer = &server.WMTUDP{
			Sim: l.Sim, Enc: cfg.Enc, Flow: VideoFlow, Next: hub1, HostRate: hostRate,
			Pool: net.Pool,
		}
	}
	return l
}

// Run executes the experiment and returns when the clip (plus drain
// time) has played out.
func (l *Local) Run() {
	if l.TCPServer != nil {
		l.TCPServer.Start()
	} else {
		l.UDPServer.Start()
	}
	horizon := units.FromSeconds(l.enc.Clip.DurationSeconds() + 60)
	l.Sim.SetHorizon(horizon)
	l.Sim.Run()
	if l.TCPClient != nil {
		l.TCPClient.Finish()
	}
	if l.UDPClient != nil {
		l.UDPClient.Finish()
	}
}

// Trace returns the client's frame trace for whichever mode ran.
func (l *Local) Trace() *trace.Trace {
	if l.TCPClient != nil {
		return l.TCPClient.Trace()
	}
	return l.UDPClient.Trace()
}

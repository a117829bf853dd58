package topology

import (
	"testing"

	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

func TestQBoneDeliversAtGenerousProfile(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	q := BuildQBone(QBoneConfig{
		Seed: 1, Enc: enc, TokenRate: 3e6, Depth: 9000, CrossLoad: 0.05,
	})
	q.Run()
	tr := q.Client.Trace()
	if tr.FrameLossFraction() > 0.001 {
		t.Errorf("frame loss %v at a generous profile", tr.FrameLossFraction())
	}
	if q.Policer.Dropped != 0 {
		t.Errorf("policer dropped %d at 3 Mbps for a 1 Mbps stream", q.Policer.Dropped)
	}
	if q.Server.Sent == 0 || q.Client.Packets == 0 {
		t.Error("nothing flowed")
	}
}

func TestQBoneDeterminism(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.5e6)
	run := func() (int, int) {
		q := BuildQBone(QBoneConfig{Seed: 42, Enc: enc, TokenRate: 1.6e6, Depth: 3000})
		q.Run()
		return q.Policer.Dropped, len(q.Client.Trace().Records)
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", d1, r1, d2, r2)
	}
	if d1 == 0 {
		t.Error("expected some policing at 1.6M for a 1.5M stream with jitter")
	}
}

func TestQBoneShaperMode(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	q := BuildQBone(QBoneConfig{
		Seed: 1, Enc: enc, TokenRate: 1.05e6, Depth: 3000, Shape: true, CrossLoad: 0,
	})
	q.Run()
	if q.Policer != nil {
		t.Fatal("shape mode built a policer")
	}
	if q.Shaper == nil || q.Shaper.Delayed == 0 {
		t.Error("shaper never delayed anything at a tight profile")
	}
	tr := q.Client.Trace()
	// Shaping preserves packets: loss only from never-conform or
	// queue overflow, which should be rare here.
	if tr.FrameLossFraction() > 0.05 {
		t.Errorf("shaped frame loss %v", tr.FrameLossFraction())
	}
}

func TestQBoneCrossTrafficDoesNotHurtEF(t *testing.T) {
	// The paper's observation: with EF prioritized, interfering
	// best-effort traffic caused only minor variations.
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	run := func(load float64) float64 {
		q := BuildQBone(QBoneConfig{
			Seed: 5, Enc: enc, TokenRate: 1.3e6, Depth: 4500, CrossLoad: load,
		})
		q.Run()
		return q.Client.Trace().FrameLossFraction()
	}
	quiet := run(0.001)
	busy := run(0.5)
	if busy > quiet+0.02 {
		t.Errorf("EF loss rose from %v to %v under cross load", quiet, busy)
	}
}

func TestLocalUDPTooBursty(t *testing.T) {
	// §4.2: "UDP streaming remained too bursty to allow meaningful
	// experimentation" — large VBR frames burst at host rate through a
	// small bucket and lose fragments at any token rate.
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	l := BuildLocal(LocalConfig{
		Seed: 1, Enc: enc, TokenRate: 2e6, Depth: 3000, UseTCP: false,
	})
	l.Run()
	if l.Policer.LossFraction() < 0.02 {
		t.Errorf("UDP packet loss %v — expected significant policing of bursts",
			l.Policer.LossFraction())
	}
}

func TestLocalTCPReliableDelivery(t *testing.T) {
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	l := BuildLocal(LocalConfig{
		Seed: 1, Enc: enc, TokenRate: 1.8e6, Depth: 4500, UseTCP: true,
	})
	l.Run()
	tr := l.Trace()
	if tr.FrameLossFraction() > 0.01 {
		t.Errorf("TCP frame loss %v at a generous profile", tr.FrameLossFraction())
	}
	if l.TCPServer.FramesSent == 0 {
		t.Error("no frames sent")
	}
}

func TestLocalShaperPreventsPolicerDrops(t *testing.T) {
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	l := BuildLocal(LocalConfig{
		Seed: 1, Enc: enc, TokenRate: 1.5e6, Depth: 3000, UseTCP: true, UseShaper: true,
	})
	l.Run()
	if l.Shaper == nil {
		t.Fatal("no shaper built")
	}
	if l.Policer.LossFraction() > 0.005 {
		t.Errorf("policer still dropping %v behind the shaper", l.Policer.LossFraction())
	}
	if l.Trace().FrameLossFraction() > 0.01 {
		t.Errorf("frame loss %v with shaping at 1.5M", l.Trace().FrameLossFraction())
	}
}

func TestLocalDeterminism(t *testing.T) {
	enc := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	run := func() (float64, int) {
		l := BuildLocal(LocalConfig{Seed: 9, Enc: enc, TokenRate: 1.1e6, Depth: 3000, UseTCP: true})
		l.Run()
		return l.Trace().FrameLossFraction(), l.Sender.Retransmits
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Errorf("local runs diverged: (%v,%d) vs (%v,%d)", a1, b1, a2, b2)
	}
}

func TestQBoneEFDelayIsSmallAndStable(t *testing.T) {
	// The EF promise the paper leans on: conformant packets see small,
	// stable delay even with cross traffic — which is also why the
	// bursty servers' adaptation misread the signals.
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	q := BuildQBone(QBoneConfig{
		Seed: 7, Enc: enc, TokenRate: 1.3e6, Depth: 4500, CrossLoad: 0.4,
	})
	q.Run()
	if q.Delay.Delay.Mean() == 0 {
		t.Fatal("no delay samples")
	}
	p99 := q.Delay.Delay.Percentile(99)
	mean := q.Delay.Delay.Mean()
	if mean > 0.05 {
		t.Errorf("mean one-way delay %.4fs too large", mean)
	}
	if p99 > mean*3+0.01 {
		t.Errorf("delay tail p99=%.4fs vs mean %.4fs — EF not protected", p99, mean)
	}
	if q.Delay.Jitter.Mean() > 0.01 {
		t.Errorf("mean jitter %.4fs too large for EF", q.Delay.Jitter.Mean())
	}
}

// TestPacketIDsDoNotAliasAcrossTransports: a traced Builder graph
// carrying a TCP connection's segments and ACKs beside a Poisson
// source's UDP packets stamps all three from one counter, so in its
// trace no id appears under two flows and ids rise in order of first
// appearance across flows.
func TestPacketIDsDoNotAliasAcrossTransports(t *testing.T) {
	const keep = 1 << 16
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: keep, Head: keep})
	b := NewBuilder(1, Env{Trace: rec})
	var snd *tcpsim.Sender
	var rcv *tcpsim.Receiver
	var cross packet.Sink
	b.Handler("rcv", packet.HandlerFunc(func(p *packet.Packet) { rcv.Handle(p) }))
	b.Handler("cross-sink", &cross)
	b.Handler("sender-ack", packet.HandlerFunc(func(p *packet.Packet) { snd.HandleAck(p) }))
	b.Router("demux", "cross-sink")
	b.Rule("demux", "tcp", node.FlowMatch(VideoFlow), "rcv")
	b.Link("fwd", LinkSpec{Rate: 2 * units.Mbps, Delay: units.Millisecond, To: "demux"})
	b.Link("ackback", LinkSpec{Rate: 10 * units.Mbps, Delay: 2 * units.Millisecond, To: "sender-ack"})
	b.Source("cross", SourceSpec{Kind: PoissonSource, Rate: 500 * units.Kbps, Flow: 99, To: "fwd"})
	net := b.mustBuild()
	snd = tcpsim.NewSender(net.Sim, VideoFlow, net.Handler("fwd"))
	snd.Pool, snd.Tap, snd.Hop = net.Pool, rec, rec.Hop("tcp-sender")
	rcv = tcpsim.NewReceiver(net.Sim, VideoFlow, net.Handler("ackback"), func(int64) {})
	rcv.Pool = net.Pool
	snd.Write(1 << 20)
	net.Sim.SetHorizon(5 * units.Second)
	net.Sim.Run()

	flowOf := map[uint64]packet.FlowID{}
	perFlow := map[packet.FlowID]int{}
	var last uint64
	for _, e := range rec.Data().Events {
		if e.PktID == 0 {
			continue
		}
		if f, seen := flowOf[e.PktID]; seen {
			if f != e.Flow {
				t.Fatalf("packet id %d carried by flow %d and flow %d", e.PktID, f, e.Flow)
			}
			continue
		}
		if e.PktID < last {
			t.Fatalf("new packet id %d (flow %d) after id %d: more than one counter", e.PktID, e.Flow, last)
		}
		last = e.PktID
		flowOf[e.PktID] = e.Flow
		perFlow[e.Flow]++
	}
	if perFlow[VideoFlow] == 0 || perFlow[99] == 0 {
		t.Fatalf("trace holds %d TCP and %d cross-traffic packets; want both", perFlow[VideoFlow], perFlow[99])
	}
}

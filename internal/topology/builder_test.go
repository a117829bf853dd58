package topology

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/units"
)

// TestBuilderForwardReferences: declaration order is free — an element
// may target one declared later.
func TestBuilderForwardReferences(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	b.Link("up", LinkSpec{Rate: units.Mbps, Delay: 0, To: "down"})
	b.Link("down", LinkSpec{Rate: units.Mbps, Delay: 0, To: "sink"})
	var sink packet.Sink
	b.Handler("sink", &sink)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Handler("up").Handle(&packet.Packet{Size: 100})
	net.Sim.Run()
	if sink.Count != 1 {
		t.Errorf("packet not delivered through forward-referenced chain: %d", sink.Count)
	}
}

func TestBuilderUnknownReference(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	b.Link("l", LinkSpec{Rate: units.Mbps, To: "nowhere"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("want unknown-reference error, got %v", err)
	}
}

func TestBuilderDuplicateName(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	var sink packet.Sink
	b.Handler("x", &sink)
	b.Link("x", LinkSpec{Rate: units.Mbps, To: "x"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-name error, got %v", err)
	}
}

func TestBuilderRuleOnUnknownRouter(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	b.Rule("ghost", "r", node.FlowMatch(1), "ghost")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown router") {
		t.Errorf("want unknown-router error, got %v", err)
	}
}

// TestBuilderRouterPolicy: rules classify, unmatched traffic takes the
// default, and conditioning elements re-mark.
func TestBuilderRouterPolicy(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	var matched, rest packet.Sink
	b.Handler("matched", &matched)
	b.Handler("rest", &rest)
	b.Policer("pol", 10*units.Mbps, 3000, packet.EF, "matched")
	b.Router("edge", "rest")
	b.Rule("edge", "video", node.FlowMatch(7), "pol")
	net := b.MustBuild()

	net.Handler("edge").Handle(&packet.Packet{Flow: 7, Size: 100})
	net.Handler("edge").Handle(&packet.Packet{Flow: 8, Size: 100})
	if matched.Count != 1 || rest.Count != 1 {
		t.Errorf("classification wrong: matched=%d rest=%d", matched.Count, rest.Count)
	}
	if matched.Last.DSCP != packet.EF {
		t.Errorf("policer did not re-mark: %v", matched.Last.DSCP)
	}
	if net.Policer("pol").Passed != 1 {
		t.Errorf("policer handle not shared: passed=%d", net.Policer("pol").Passed)
	}
}

// TestBuilderMultiClassLink: a DRR-scheduled link built declaratively
// shares a bottleneck by class.
func TestBuilderMultiClassLink(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	var sink packet.Sink
	b.Handler("sink", &sink)
	b.Link("bottleneck", LinkSpec{
		Rate: units.Mbps, Delay: units.Millisecond,
		Sched: DRRSched(
			queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Limit: 100},
			queue.ClassSpec{Name: "be", Limit: 100},
		),
		To: "sink",
	})
	net := b.MustBuild()
	in := net.Handler("bottleneck")
	for i := 0; i < 40; i++ {
		d := packet.BestEffort
		if i%2 == 0 {
			d = packet.EF
		}
		in.Handle(&packet.Packet{ID: uint64(i), Size: 1000, DSCP: d})
	}
	net.Sim.Run()
	if sink.Count != 40 {
		t.Fatalf("delivered %d of 40", sink.Count)
	}
	cs := net.Link("bottleneck").Sched.Classes()
	if len(cs) != 2 || cs[0].Name != "ef" || cs[0].Enqueued != 20 || cs[1].Enqueued != 20 {
		t.Errorf("per-class counters wrong: %+v", cs)
	}
}

// TestBuilderSourcesDeterministic: two identical builds produce
// identical traffic, and source handles are reachable by name.
func TestBuilderSourcesDeterministic(t *testing.T) {
	build := func() (int, int64) {
		b := NewBuilder(42, nil, nil)
		var sink packet.Sink
		b.Handler("sink", &sink)
		b.Link("l", LinkSpec{Rate: 10 * units.Mbps, Delay: units.Millisecond, To: "sink"})
		b.Source("p", SourceSpec{Kind: PoissonSource, Rate: 2 * units.Mbps, Flow: 5, To: "l"})
		b.Source("q", SourceSpec{Kind: PoissonSource, Rate: units.Mbps, Flow: 6, To: "l"})
		net := b.MustBuild()
		net.Sim.SetHorizon(units.FromSeconds(2))
		net.Sim.Run()
		if net.Poisson("p").Sent == 0 {
			t.Fatal("Poisson source idle")
		}
		return sink.Count, sink.Bytes
	}
	c1, b1 := build()
	c2, b2 := build()
	if c1 != c2 || b1 != b2 {
		t.Errorf("builds diverged: (%d,%d) vs (%d,%d)", c1, b1, c2, b2)
	}
}

func TestNetworkAccessorPanics(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	var sink packet.Sink
	b.Handler("sink", &sink)
	net := b.MustBuild()
	for name, fn := range map[string]func(){
		"missing element": func() { net.Handler("ghost") },
		"kind mismatch":   func() { net.Link("sink") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBuilderBatchedCBRSource pins the SourceSpec.Batch path: one
// batched declaration must be packet-for-packet identical to Batch
// separate CBR declarations in flow-id order, through a real built
// link.
func TestBuilderBatchedCBRSource(t *testing.T) {
	build := func(batched bool) (int, int64) {
		b := NewBuilder(7, nil, nil)
		var sink packet.Sink
		b.Handler("sink", &sink)
		b.Link("l", LinkSpec{Rate: 20 * units.Mbps, Delay: units.Millisecond, To: "sink"})
		if batched {
			b.Source("c", SourceSpec{Kind: CBRSource, Rate: units.Mbps, Size: 1000,
				Flow: 30, Batch: 3, To: "l"})
		} else {
			for i := 0; i < 3; i++ {
				b.Source(fmt.Sprintf("c%d", i), SourceSpec{Kind: CBRSource,
					Rate: units.Mbps, Size: 1000, Flow: 30 + packet.FlowID(i), To: "l"})
			}
		}
		net := b.MustBuild()
		net.Sim.SetHorizon(units.FromSeconds(2))
		net.Sim.Run()
		return sink.Count, sink.Bytes
	}
	uc, ub := build(false)
	bc, bb := build(true)
	if uc == 0 || uc != bc || ub != bb {
		t.Errorf("batched CBR diverged from separate sources: (%d,%d) vs (%d,%d)", uc, ub, bc, bb)
	}
}

// TestBuilderBatchRejectsRandomSources pins the gating: batching a
// source whose per-flow behaviour needs its own RNG fork is a Build
// error, not a silent approximation.
func TestBuilderBatchRejectsRandomSources(t *testing.T) {
	b := NewBuilder(1, nil, nil)
	var sink packet.Sink
	b.Handler("sink", &sink)
	b.Source("s", SourceSpec{Kind: PoissonSource, Rate: units.Mbps, Flow: 9, Batch: 2, To: "sink"})
	if _, err := b.Build(); err == nil {
		t.Error("batched Poisson source built without error")
	}
}

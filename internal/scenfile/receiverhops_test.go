package scenfile

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// TestReceiverDeliveriesUnderOwnHop: a receiver is tapped where it is
// declared, under its own name, so in a traced run the Deliver events
// filed under each receiver's hop are exactly the packets that
// receiver counted, and no other hop carries a Deliver event. A
// receiver declared twice, or one the declaration forgot to tap, shows
// here by hop name. The graph compiler is a row, as are the presets it
// shares the builder with.
func TestReceiverDeliveriesUnderOwnHop(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	classes := []topology.FlowClass{
		{Name: "gold", Enc: enc, N: 2, TokenRate: 1.3e6},
		{Name: "bronze", Enc: enc, N: 1, TokenRate: 1.1e6},
	}
	// Each row builds and runs a traced simulation and returns the
	// packets each receiver counted, by its hop name.
	for _, c := range []struct {
		name string
		run  func(*ptrace.Recorder) map[string]int64
	}{
		{"qbone", func(r *ptrace.Recorder) map[string]int64 {
			q := topology.BuildQBone(topology.QBoneConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Trace: r})
			q.Run()
			return map[string]int64{"client": int64(q.Client.Packets)}
		}},
		{"local-udp", func(r *ptrace.Recorder) map[string]int64 {
			l := topology.BuildLocal(topology.LocalConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, Trace: r})
			l.Run()
			return map[string]int64{"client": int64(l.UDPClient.Packets)}
		}},
		{"af", func(r *ptrace.Recorder) map[string]int64 {
			a := topology.BuildAF(topology.AFConfig{Seed: 1, Enc: enc, CIR: 1.0e6, Trace: r})
			a.Run()
			return map[string]int64{"client": int64(a.Client.Packets)}
		}},
		{"tandem", func(r *ptrace.Recorder) map[string]int64 {
			td := topology.BuildTandem(topology.TandemConfig{Seed: 1, Enc: enc, TokenRate: 1.3e6, Depth: 4500, SecondBorder: true, Trace: r})
			td.Run()
			return map[string]int64{"client": int64(td.Client.Packets)}
		}},
		{"multiflow-exact", func(r *ptrace.Recorder) map[string]int64 {
			m := topology.BuildMultiFlow(topology.MultiFlowConfig{Seed: 1, Enc: enc, N: 2, TokenRate: 1.3e6, Trace: r})
			m.Run()
			got := map[string]int64{}
			for i, cl := range m.Clients {
				got[fmt.Sprintf("client%d", i)] = int64(cl.Packets)
			}
			return got
		}},
		{"multiflow-aggregated", func(r *ptrace.Recorder) map[string]int64 {
			m := topology.BuildMultiFlow(topology.MultiFlowConfig{Seed: 1, Classes: classes, Batch: true,
				AggregateStats: true, AFLoad: 0.1, Trace: r})
			m.Run()
			got := map[string]int64{}
			for ci, agg := range m.Aggregates {
				got["agg-"+m.ClassNames[ci]] = agg.Packets
			}
			return got
		}},
		{"dumbbell-file", func(r *ptrace.Recorder) map[string]int64 {
			f, err := load("testdata/dumbbell.scenario.json")
			if err != nil {
				t.Fatal(err)
			}
			g := f.Graph
			encs := g.encodings()
			net, clients := g.build(topology.Env{Trace: r}, encs, 1000*units.Kbps, g.Seed)
			net.Sim.Run()
			got := map[string]int64{}
			for i, gf := range g.Flows {
				got[gf.Name+"-client"] = int64(clients[i].Packets)
			}
			return got
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 18, Kinds: 1 << ptrace.Deliver})
			want := c.run(rec)
			if n := rec.Overwritten(); n > 0 {
				t.Fatalf("the recorder's ring overwrote %d Deliver events; raise its capacity", n)
			}
			d := rec.Data()
			got := map[string]int64{}
			for _, e := range d.Events {
				got[d.Hops[e.Hop]]++
			}
			for name, n := range want {
				if n == 0 {
					t.Errorf("receiver %q counted no packets; the row proves nothing", name)
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("Deliver events by hop %v, want each receiver's own count %v", got, want)
			}
		})
	}
}

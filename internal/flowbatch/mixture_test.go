package flowbatch

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// capRec is one captured emission: everything observable downstream of
// the fan-out except the globally monotone packet id.
type capRec struct {
	at     units.Time
	flow   packet.FlowID
	size   int
	sentAt units.Time
}

type captureHandler struct {
	sim  *sim.Simulator
	pool *packet.Pool
	recs []capRec
}

func (c *captureHandler) Handle(p *packet.Packet) {
	c.recs = append(c.recs, capRec{at: c.sim.Now(), flow: p.Flow, size: p.Size, sentAt: p.SentAt})
	c.pool.Put(p)
}

// TestArmingRulesEmitIdentically pins the one decision the source keeps
// two forms of: into a bare sink — no native border events to tie with
// — per-packet and single-timer delivery arming emit the identical
// packet sequence, on either side of armPerPacketMax, and Start picks
// the rule from the flow count alone. (Inside a topology the rules
// break same-instant ties differently; see the package comment.)
func TestArmingRulesEmitIdentically(t *testing.T) {
	t.Parallel()
	sched := TruncateSchedule(CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), units.Second)
	chain := ChainSpec{AccessRate: 100 * units.Mbps,
		AccessDelay: 500 * units.Microsecond, JitterMax: 3 * units.Millisecond}
	run := func(n int, start func(*BatchedMixture)) ([]capRec, bool) {
		s := sim.New(7)
		pool := packet.NewPool()
		sink := &captureHandler{sim: s, pool: pool}
		mix := &BatchedMixture{Sim: s, Next: []packet.Handler{sink}, Pool: pool,
			Classes: []MixtureClass{
				{Sched: sched, N: n / 2, Offset: 1_712_345, Chain: chain},
				{Sched: sched, N: n - n/2, Phase: 170 * units.Microsecond, Offset: 2_170_001, Chain: chain},
			}}
		start(mix)
		s.Run()
		if got, want := mix.TotalSent(), n*len(sched.Entries); got != want {
			t.Fatalf("N=%d emitted %d of %d scheduled packets", n, got, want)
		}
		return sink.recs, mix.perPacket
	}
	for _, n := range []int{armPerPacketMax, armPerPacketMax + 1} {
		chosen, perPacket := run(n, (*BatchedMixture).Start)
		if want := n <= armPerPacketMax; perPacket != want {
			t.Errorf("N=%d: Start armed per packet = %v, want %v", n, perPacket, want)
		}
		for _, rule := range []bool{true, false} {
			forced, _ := run(n, func(m *BatchedMixture) { m.startArmed(rule) })
			if len(forced) != len(chosen) {
				t.Fatalf("N=%d perPacket=%v: %d emissions, Start's rule %d", n, rule, len(forced), len(chosen))
			}
			for i := range chosen {
				if forced[i] != chosen[i] {
					t.Fatalf("N=%d perPacket=%v: emission %d differs: %+v vs %+v",
						n, rule, i, forced[i], chosen[i])
				}
			}
		}
	}
}

// TestMixtureClassLayout pins the class-major global flow indexing and
// per-class start lattice.
func TestMixtureClassLayout(t *testing.T) {
	t.Parallel()
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	sched := CachedPacedSchedule(enc)
	s := sim.New(1)
	pool := packet.NewPool()
	sink := &captureHandler{sim: s, pool: pool}
	mix := &BatchedMixture{Sim: s, Classes: []MixtureClass{
		{Sched: sched, N: 3, Offset: 10 * units.Millisecond, Chain: ChainSpec{AccessRate: units.Mbps}},
		{Sched: sched, N: 2, Phase: units.Second, Offset: 20 * units.Millisecond, Chain: ChainSpec{AccessRate: units.Mbps}},
	}, Next: []packet.Handler{sink}, Pool: pool}
	mix.InitReplay()
	if got := mix.TotalFlows(); got != 5 {
		t.Fatalf("TotalFlows = %d, want 5", got)
	}
	if got := mix.FlowBase(1); got != 3 {
		t.Errorf("FlowBase(1) = %d, want 3", got)
	}
	wantClass := []int{0, 0, 0, 1, 1}
	wantStart := []units.Time{0, 10 * units.Millisecond, 20 * units.Millisecond,
		units.Second, units.Second + 20*units.Millisecond}
	for g := 0; g < 5; g++ {
		if mix.ClassOf(g) != wantClass[g] {
			t.Errorf("ClassOf(%d) = %d, want %d", g, mix.ClassOf(g), wantClass[g])
		}
		if mix.StartOf(g) != wantStart[g] {
			t.Errorf("StartOf(%d) = %v, want %v", g, mix.StartOf(g), wantStart[g])
		}
	}
}

func TestTruncateSchedule(t *testing.T) {
	t.Parallel()
	sched := &Schedule{Entries: []Entry{
		{At: 0, Size: 100}, {At: units.Second, Size: 200}, {At: 2 * units.Second, Size: 300},
	}, Bytes: 600}
	if got := TruncateSchedule(sched, 0); got != sched {
		t.Error("cutoff 0 should return the schedule unchanged")
	}
	if got := TruncateSchedule(sched, 10*units.Second); got != sched {
		t.Error("cutoff past the end should return the schedule unchanged")
	}
	tr := TruncateSchedule(sched, 2*units.Second)
	if len(tr.Entries) != 2 || tr.Bytes != 300 {
		t.Errorf("cutoff 2s: got %d entries / %d bytes, want 2 / 300 (entry at the cutoff is excluded)",
			len(tr.Entries), tr.Bytes)
	}
	if &tr.Entries[0] != &sched.Entries[0] {
		t.Error("truncated schedule should share the backing array")
	}
	if got := TruncateSchedule(nil, units.Second); got != nil {
		t.Error("nil schedule should pass through")
	}
}

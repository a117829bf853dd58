package flowbatch

import (
	"runtime"
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

// TestRunPathsEmitIdentically pins the two run paths against each
// other on either side of pipelineMaxFlows: into a bare sink — no
// native border events to tie with — the serial walk (Start) and the
// pipeline at 1 and 3 shards emit the identical packet sequence.
// (Inside a topology the paths break same-instant ties differently;
// see the package comment.)
func TestRunPathsEmitIdentically(t *testing.T) {
	t.Parallel()
	sched := TruncateSchedule(CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), units.Second)
	chain := ChainSpec{AccessRate: 100 * units.Mbps,
		AccessDelay: 500 * units.Microsecond, JitterMax: 3 * units.Millisecond}
	run := func(n int, start func(*BatchedMixture)) []capRec {
		s := sim.New(7)
		pool := packet.NewPool()
		sink := &captureHandler{sim: s, pool: pool}
		mix := &BatchedMixture{Sim: s, Next: []packet.Handler{sink}, Pool: pool,
			Classes: []MixtureClass{
				{Sched: sched, N: n / 2, Offset: 1_712_345, Chain: chain},
				{Sched: sched, N: n - n/2, Phase: 170 * units.Microsecond, Offset: 2_170_001, Chain: chain},
			}}
		start(mix)
		if got, want := mix.TotalSent(), n*len(sched.Entries); got != want {
			t.Fatalf("N=%d emitted %d of %d scheduled packets", n, got, want)
		}
		return sink.recs
	}
	const horizon = 10 * units.Second
	for _, n := range []int{pipelineMaxFlows, pipelineMaxFlows + 1} {
		serial := run(n, func(m *BatchedMixture) { m.Start(); m.Sim.Run() })
		for _, shards := range []int{1, 3} {
			piped := run(n, func(m *BatchedMixture) { m.runSharded(shards, horizon) })
			if len(piped) != len(serial) {
				t.Fatalf("N=%d shards=%d: %d emissions, serial walk %d", n, shards, len(piped), len(serial))
			}
			for i := range serial {
				if piped[i] != serial[i] {
					t.Fatalf("N=%d shards=%d: emission %d differs: %+v vs serial %+v",
						n, shards, i, piped[i], serial[i])
				}
			}
		}
	}
}

// TestMixtureClassLayout pins the class-major global flow indexing and
// per-class start lattice, as locate derives them from the class
// bounds, with an empty class in the middle owning no flow.
func TestMixtureClassLayout(t *testing.T) {
	t.Parallel()
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	sched := CachedPacedSchedule(enc)
	s := sim.New(1)
	pool := packet.NewPool()
	sink := &captureHandler{sim: s, pool: pool}
	mix := &BatchedMixture{Sim: s, Classes: []MixtureClass{
		{Sched: sched, N: 3, Offset: 10 * units.Millisecond, Chain: ChainSpec{AccessRate: units.Mbps}},
		{Sched: sched, N: 0, Phase: units.Second / 2, Offset: units.Millisecond, Chain: ChainSpec{AccessRate: units.Mbps}},
		{Sched: sched, N: 2, Phase: units.Second, Offset: 20 * units.Millisecond, Chain: ChainSpec{AccessRate: units.Mbps}},
	}, Next: []packet.Handler{sink}, Pool: pool}
	if got := mix.init(); got != 5 {
		t.Fatalf("init laid out %d flows, want 5", got)
	}
	wantClass := []int{0, 0, 0, 2, 2}
	wantStart := []units.Time{0, 10 * units.Millisecond, 20 * units.Millisecond,
		units.Second, units.Second + 20*units.Millisecond}
	for g := int32(0); g < 5; g++ {
		if ci, start := mix.locate(g); ci != wantClass[g] || start != wantStart[g] {
			t.Errorf("flow %d: class %d starting %v, want class %d starting %v", g, ci, start, wantClass[g], wantStart[g])
		}
	}
}

// TestMixtureInitBytesPerFlow pins a virtual flow's mixture state at
// 12 B — its delivery count and its jitter clamp — plus O(classes):
// the class bounds and base arrivals are per class, and a flow's class
// and start are derived from them. A class and a start instant stored
// per flow, with a byte counter, made it 36 B.
func TestMixtureInitBytesPerFlow(t *testing.T) {
	const n = 100_000
	sched := TruncateSchedule(CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), 100*units.Millisecond)
	chain := ChainSpec{AccessRate: 100 * units.Mbps, AccessDelay: 500 * units.Microsecond, JitterMax: 3 * units.Millisecond}
	mix := &BatchedMixture{Sim: sim.New(1), Next: []packet.Handler{&packet.Sink{}},
		Classes: []MixtureClass{
			{Sched: sched, N: n / 4, Offset: 1_712_345, Chain: chain},
			{Sched: sched, N: n - n/4, Phase: 170 * units.Microsecond, Offset: 2_170_001, Chain: chain},
		}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mix.init()
	runtime.ReadMemStats(&after)
	// Per class: a base arrival walk, plus a page of rounding for each
	// large per-flow array.
	perClass := uint64(len(sched.Entries))*8 + 8<<10
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("init of %d flows allocated %d B (%.2f B per flow)", n, bytes, float64(bytes)/n)
	if limit := 12*n + uint64(len(mix.Classes))*perClass; bytes > limit {
		t.Errorf("init of %d flows allocated %d B, want ≤ %d (12 B per flow + %d B per class)", n, bytes, limit, perClass)
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

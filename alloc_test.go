package repro_test

// Allocation budget for the per-packet hot path: once the event pool,
// the FIFO rings and the pre-bound link Timers are warm, pushing a
// packet through enqueue → serialization → propagation → delivery
// must not allocate at all. "go run ./benchmark" times the same path
// as its link.kernel_ns kernel.

import (
	"io"
	"math/bits"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/video"
)

// TestLinkHotPathAllocationBudget pins the tracing-disabled contract:
// with every Tap nil (the default), the link+queue hot path allocates
// nothing — the per-event cost of the disabled tracing subsystem is a
// pointer comparison, not an allocation.
func TestLinkHotPathAllocationBudget(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	l := link.New(s, 100*units.Mbps, units.Millisecond, queue.NewEFPriority(0, 0), &sink)
	var p packet.Packet
	p.Size = 1500
	p.DSCP = packet.EF
	// Warm the pools: event free list, calendar buckets, FIFO ring,
	// in-flight ring.
	for i := 0; i < 200; i++ {
		l.Handle(&p)
		s.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		l.Handle(&p)
		s.Run() // drains the tx-done and delivery events
	})
	if allocs != 0 {
		t.Errorf("link+queue hot path allocates %.2f/op, want 0", allocs)
	}
}

// TestLinkHotPathTracedAllocationBudget pins the tracing-enabled
// budget: with a ring Recorder attached the same path must stay at
// ≤ 1 amortized allocation per simulator event — and in fact stays at
// 0, because Emit writes into a ring allocated once, at its first
// write, during the warm-up.
func TestLinkHotPathTracedAllocationBudget(t *testing.T) {
	s := sim.New(1)
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 4096})
	rec.SetClock(s)
	var sink packet.Sink
	l := link.New(s, 100*units.Mbps, units.Millisecond, queue.NewEFPriority(0, 0), &sink)
	l.Tap, l.Hop = rec, rec.Hop("link")
	var p packet.Packet
	p.Size = 1500
	p.DSCP = packet.EF
	for i := 0; i < 200; i++ {
		l.Handle(&p)
		s.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		l.Handle(&p)
		s.Run() // two simulator events plus three trace emissions
	})
	if allocs > 1 {
		t.Errorf("traced link+queue hot path allocates %.2f/op, want <= 1 amortized (expect 0)", allocs)
	}
	if rec.Seen() == 0 {
		t.Fatal("recorder saw nothing — tap not wired")
	}
}

// denseMixture declares the fixtures' fan-out: a one-class mixture of
// four virtual flows on a dense synthetic schedule with a zero-jitter
// folded access chain, feeding next.
func denseMixture(s *sim.Simulator, pool *packet.Pool, next packet.Handler) *flowbatch.BatchedMixture {
	sched := &flowbatch.Schedule{}
	for i := 0; i < 12000; i++ {
		sched.Entries = append(sched.Entries, flowbatch.Entry{
			At: units.Time(i) * 500 * units.Microsecond, Size: 1200,
			FrameSeq: int32(i / 4), FragIndex: int32(i % 4), FragCount: 4,
		})
	}
	return &flowbatch.BatchedMixture{
		Sim: s, BaseFlow: 10, Next: []packet.Handler{next}, Pool: pool,
		Classes: []flowbatch.MixtureClass{{Sched: sched, N: 4, Offset: 7 * units.Millisecond,
			Chain: flowbatch.ChainSpec{AccessRate: 100 * units.Mbps,
				AccessDelay: 500 * units.Microsecond}}},
	}
}

// batchedFixture builds a warmed-up batched fan-out — four
// virtual flows on a dense synthetic schedule, folded access chain
// with the given jitter bound, terminal pooled sink — ready for
// allocation measurement. With zero jitter the steady state is exactly
// periodic. With jitter it is not, and still pins at zero: calendar
// buckets are chains with no capacity to outgrow, and what does have a
// high-water mark — pooled events, the arrival window buffers and the
// pending-delivery heap, at most one entry per packet inside the
// jitter bound — reaches it during the warm-up.
func batchedFixture(tap *ptrace.Recorder, jitterMax units.Time) (*sim.Simulator, *flowbatch.BatchedMixture) {
	s := sim.New(1)
	pool := packet.NewPool()
	sink := packet.Sink{Pool: pool}
	src := denseMixture(s, pool, &sink)
	src.Classes[0].Chain.JitterMax = jitterMax
	if tap != nil {
		tap.SetClock(s)
		src.Tap, src.Hop = tap, tap.Hop("vflows")
	}
	src.Start()
	s.RunUntil(200 * units.Millisecond) // warm the event pool, the pending-delivery heap and the packet arena
	return s, src
}

// TestBatchedSourceAllocationBudget pins the batched fan-out's hot
// path at zero allocations, with the folded jitter off and on: once
// the pending-delivery heap, the event pool and the packet arena are
// warm, emitting N virtual flows' packets through the folded chain
// allocates nothing.
func TestBatchedSourceAllocationBudget(t *testing.T) {
	for _, jitterMax := range []units.Time{0, 2 * units.Millisecond} {
		s, src := batchedFixture(nil, jitterMax)
		var at units.Time = 200 * units.Millisecond
		allocs := testing.AllocsPerRun(200, func() {
			at += 10 * units.Millisecond
			s.RunUntil(at)
		})
		if allocs != 0 {
			t.Errorf("jitter %v: batched emission hot path allocates %.2f/op, want 0", jitterMax, allocs)
		}
		if src.TotalSent() == 0 {
			t.Fatalf("jitter %v: fixture emitted nothing — budget measured an idle simulator", jitterMax)
		}
	}
}

// TestBatchedSourceWholeRunAllocationsIndependentOfN states the
// fan-out's allocation invariant for a whole run, set-up included:
// Start makes a fixed number of per-flow arrays, sizes the arrival
// window buffers and the pending-delivery heap from the event density,
// and nothing is allocated per flow or per window — so a 500-flow and
// a 4,000-flow run on fresh simulators, sharing one warmed packet pool,
// differ by a few dozen allocations (event-pool, window and heap
// high-water marks).
func TestBatchedSourceWholeRunAllocationsIndependentOfN(t *testing.T) {
	sched := &flowbatch.Schedule{}
	for i := 0; i < 25; i++ {
		sched.Entries = append(sched.Entries, flowbatch.Entry{
			At: units.Time(i) * 40 * units.Millisecond, Size: 1200, FragCount: 1,
		})
	}
	pool := packet.NewPool()
	sink := packet.Sink{Pool: pool}
	run := func(n int) {
		src := &flowbatch.BatchedMixture{
			Sim: sim.New(1), BaseFlow: 10, Next: []packet.Handler{&sink}, Pool: pool,
			Classes: []flowbatch.MixtureClass{{Sched: sched, N: n, Offset: units.Second / units.Time(n),
				Chain: flowbatch.ChainSpec{AccessRate: 100 * units.Mbps,
					AccessDelay: 500 * units.Microsecond, JitterMax: 2 * units.Millisecond}}},
		}
		src.Start()
		src.Sim.Run()
		if src.TotalSent() != n*len(sched.Entries) {
			t.Fatalf("%d flows delivered %d packets, want %d", n, src.TotalSent(), n*len(sched.Entries))
		}
	}
	run(500) // warm the shared pool
	small := testing.AllocsPerRun(2, func() { run(500) })
	large := testing.AllocsPerRun(2, func() { run(4000) })
	t.Logf("whole-run allocations: %.0f at 500 flows, %.0f at 4,000", small, large)
	if d := large - small; d > 64 || d < -64 {
		t.Errorf("whole-run allocations differ by %.0f between 500 and 4,000 flows (%.0f vs %.0f), want within 64",
			d, small, large)
	}
}

// TestBatchedSourceTracedAllocationBudget pins the same path with a
// ring Recorder attached: Emit writes into a ring allocated at its
// first write, so the traced budget is still zero.
func TestBatchedSourceTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	s, src := batchedFixture(rec, 0)
	var at units.Time = 200 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("traced batched emission hot path allocates %.2f/op, want 0", allocs)
	}
	if src.TotalSent() == 0 || rec.Seen() == 0 {
		t.Fatal("fixture emitted nothing or tap not wired")
	}
}

// TestSpillingRecorderAllocationBudget pins what a spilling capture
// costs in memory: the spill stream is the capture, so a default-Config
// recorder (a 64 Ki-event, 3 MiB ring if it kept one) that spills and
// digests 200 k events allocates only its block buffer, its same-kind
// references and the digest state — under 256 KiB in total, however
// long the run.
func TestSpillingRecorderAllocationBudget(t *testing.T) {
	const events = 200000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := ptrace.NewRecorder(ptrace.Config{})
	rec.DigestWrites()
	rec.SpillTo(io.Discard)
	hops := [3]ptrace.HopID{rec.Hop("border"), rec.Hop("core"), rec.Hop("client")}
	kinds := [4]ptrace.Kind{ptrace.LinkEnqueue, ptrace.LinkTx, ptrace.PolicerPass, ptrace.Deliver}
	for i := 0; i < events; i++ {
		rec.Emit(ptrace.Event{
			T: units.Time(i) * units.Microsecond, Delay: units.Time(i%977) * units.Microsecond,
			PktID: uint64(i / 4), Flow: packet.FlowID(1 + i%8), Size: 1200, QLen: int32(i % 31),
			FrameSeq: int32(i / 40), Hop: hops[i%3], Kind: kinds[i%4],
		})
	}
	spilled := rec.Spilled()
	if err := rec.FinishSpill(); err != nil {
		t.Fatal(err)
	}
	sum := rec.Summary()
	runtime.ReadMemStats(&after)
	if spilled != events || sum.Retained != events {
		t.Fatalf("spilled %d and digested %d events, want %d", spilled, sum.Retained, events)
	}
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("spilling and digesting %d events allocated %d KiB", events, total>>10)
	if total >= 256<<10 {
		t.Errorf("a spilling recorder allocated %d KiB for %d events, want < 256 KiB", total>>10, events)
	}
}

// aggregateFixture warms a class-level Aggregate receiver on a pooled
// delivery stream with varied delays, so the P² sketch markers have
// settled into steady-state interpolation before measurement.
func aggregateFixture(tap *ptrace.Recorder) (*sim.Simulator, *client.Aggregate, func()) {
	s := sim.New(1)
	pool := packet.NewPool()
	agg := client.NewAggregate(s)
	agg.Pool = pool
	if tap != nil {
		tap.SetClock(s)
		agg.Tap, agg.Hop = tap, tap.Hop("class")
	}
	var i units.Time
	deliver := func() {
		for k := 0; k < 8; k++ {
			i++
			p := pool.Get()
			p.Size = 1200
			p.Flow = 42
			// A deterministic sawtooth of one-way delays in [1ms, 9ms):
			// enough spread to keep all three sketches interpolating.
			p.SentAt = s.Now() - units.Millisecond - (i%8)*units.Millisecond
			agg.Handle(p)
		}
	}
	for k := 0; k < 100; k++ {
		deliver()
	}
	return s, agg, deliver
}

// TestAggregateDeliveryAllocationBudget pins the aggregated-stats
// delivery path at zero allocations once warm: counting, the Welford
// moments, and the three P² quantile sketches all run on fixed-size
// state, and the packet returns to its pool.
func TestAggregateDeliveryAllocationBudget(t *testing.T) {
	_, agg, deliver := aggregateFixture(nil)
	allocs := testing.AllocsPerRun(500, deliver)
	if allocs != 0 {
		t.Errorf("aggregate delivery hot path allocates %.2f/op, want 0", allocs)
	}
	if agg.Packets == 0 || agg.Delay.N() == 0 {
		t.Fatal("fixture delivered nothing — budget measured an idle receiver")
	}
}

// TestAggregateDeliveryTracedAllocationBudget pins the same path with
// a ring Recorder attached: the per-delivery Deliver event goes into
// preallocated storage, so the traced budget is still zero.
func TestAggregateDeliveryTracedAllocationBudget(t *testing.T) {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 8192})
	_, agg, deliver := aggregateFixture(rec)
	allocs := testing.AllocsPerRun(500, deliver)
	if allocs != 0 {
		t.Errorf("traced aggregate delivery hot path allocates %.2f/op, want 0", allocs)
	}
	if agg.Packets == 0 || rec.Seen() == 0 {
		t.Fatal("fixture delivered nothing or tap not wired")
	}
}

// steadyTick is a self-rescheduling timer with a fixed period: the
// simplest workload whose firing spacing the adaptive calendar policy
// can observe and converge on.
type steadyTick struct {
	s   *sim.Simulator
	gap units.Time
	n   int
}

func (a *steadyTick) Fire(now units.Time) {
	a.n++
	a.s.AfterTimer(a.gap, a)
}

// TestAdaptiveWidthAllocationBudget pins the density-tracking path at
// zero allocations warm: the streaming statistics the adaptive policy
// reads (scheduled count, spacing EWMA, per-rebase firing totals) are
// plain counters, and once the width has converged on the observed
// spacing — which the warm-up guarantees, firing ~20k events at a
// fixed 20 µs period across several window rebases — steady-state
// running neither allocates nor moves the width again.
func TestAdaptiveWidthAllocationBudget(t *testing.T) {
	s := sim.New(1)
	tick := &steadyTick{s: s, gap: 20 * units.Microsecond}
	s.AfterTimer(0, tick)
	s.RunUntil(400 * units.Millisecond) // several rebases: width converges
	qs := s.QueueStats()
	if !qs.Adaptive {
		t.Fatal("sim.New did not produce an adaptive queue")
	}
	if qs.WidthMoves == 0 || qs.Width >= sim.New(1).QueueStats().Width {
		t.Fatalf("width did not converge below the default during warm-up: %+v", qs)
	}
	var at units.Time = 400 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("adaptive density-tracking path allocates %.2f/op, want 0", allocs)
	}
	after := s.QueueStats()
	if after.WidthMoves != qs.WidthMoves {
		t.Errorf("width moved during steady state: %d -> %d moves (width %v -> %v)",
			qs.WidthMoves, after.WidthMoves, qs.Width, after.Width)
	}
	if after.Rebases == qs.Rebases {
		t.Error("no rebase inside the measured window — budget did not cover migration")
	}
}

// TestPooledSourceAllocationBudget pins the same property for a
// steady-state traffic source feeding a link from a packet pool: the
// whole emit → enqueue → transmit → sink-release cycle reuses pooled
// packets and events.
func TestPooledSourceAllocationBudget(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	sink := packet.Sink{Pool: pool}
	l := link.New(s, 100*units.Mbps, 0, queue.NewEFPriority(0, 0), &sink)
	l.Pool = pool
	src := &traffic.CBR{Sim: s, Rate: 10 * units.Mbps, Size: 1500, Next: l, Pool: pool}
	src.Start()
	s.RunUntil(100 * units.Millisecond) // warm
	var at units.Time = 100 * units.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		at += 10 * units.Millisecond
		s.RunUntil(at)
	})
	if allocs != 0 {
		t.Errorf("pooled CBR→link cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestServerAllocationBudget pins the streaming servers' frame clock
// and send ring at zero allocations: once one pass over the clip has
// warmed the event pool, the packet arena and the ring (AllocsPerRun's
// own first call), a pooled Paced and a pooled WMTUDP stream the whole
// clip again, Start included, with no allocation per frame and none
// per packet.
func TestServerAllocationBudget(t *testing.T) {
	cbr := video.CachedCBR(video.Lost(), 1.0e6)
	wmv := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	s := sim.New(1)
	pool := packet.NewPool()
	sink := &packet.Sink{Pool: pool}
	paced := &server.Paced{Sim: s, Enc: cbr, Flow: 1, Next: sink, Pool: pool}
	wmt := &server.WMTUDP{Sim: s, Enc: wmv, Flow: 2, Next: sink, Pool: pool}
	for _, srv := range []struct {
		name  string
		start func()
		sent  *int
	}{
		{"Paced", paced.Start, &paced.Sent},
		{"WMTUDP", wmt.Start, &wmt.Sent},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			srv.start()
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.0f over a warm clip, want 0", srv.name, allocs)
		}
		if *srv.sent < 2*len(cbr.Frames) {
			t.Fatalf("%s sent %d packets — budget measured an idle server", srv.name, *srv.sent)
		}
	}
}

// wholeClipReceive delivers a clip of three fragments a frame, in order
// and without loss, to c.
func wholeClipReceive(c *client.UDP, clipFrames int, pool *packet.Pool) {
	for seq := 0; seq < clipFrames; seq++ {
		for fi := 0; fi < 3; fi++ {
			p := pool.Get()
			p.Size, p.FrameSeq, p.FragIndex, p.FragCount = 1200, seq, fi, 3
			c.Handle(p)
		}
	}
}

// slabAllocs is what a fragSlab allocates to hold states: one chunk per
// 1,024 of them, and the doublings of the index that points at the
// chunks.
func slabAllocs(states int) int {
	chunks := (states + 1023) / 1024
	if chunks == 0 {
		return 0
	}
	return chunks + bits.Len(uint(chunks-1)) + 1
}

// TestUDPReceiveAllocationBudget pins the receiver's storage to what it
// keeps. A whole clip without a Scratch costs a constant: the receiver,
// its trace header, its slot table, ⌈frames/1024⌉ slab chunks with the
// doublings of their index, and one record array (10 for 2,150 frames).
// A packet costs nothing once its frame has a state, and on a Scratch
// another receiver has warmed a whole clip costs the receiver and its
// trace header, nothing else. Then 320 receivers that each hear one
// frame in twelve, their packets interleaved as a lossy bottleneck
// delivers them: on a fresh Scratch their storage is the slot tables,
// the chunks of one shared slab and one exactly sized record array each,
// and a second job on the same Scratch allocates none of it.
func TestUDPReceiveAllocationBudget(t *testing.T) {
	pool := packet.NewPool()
	pool.Put(pool.Get()) // one packet circulates
	clk := sim.New(1)
	clipFrames := video.Lost().FrameCount() // 2,150
	var c *client.UDP
	total := testing.AllocsPerRun(5, func() {
		c = client.NewUDP(clk, clipFrames)
		c.Pool = pool
		wholeClipReceive(c, clipFrames, pool)
		c.Finish()
	})
	if want := float64(2 + 1 + slabAllocs(clipFrames) + 1); total > want {
		t.Errorf("whole-clip UDP receive allocates %.0f, want <= %.0f", total, want)
	}
	if got := len(c.Finish().Records); got != clipFrames {
		t.Fatalf("reassembled %d of %d frames — budget measured a broken receiver", got, clipFrames)
	}
	// Every frame has its state now, so any further packet — a late
	// fragment here — finds it and allocates nothing.
	perPacket := testing.AllocsPerRun(100, func() { wholeClipReceive(c, clipFrames, pool) })
	if perPacket != 0 {
		t.Errorf("UDP receive on a full-grown slab allocates %.2f per clip, want 0", perPacket)
	}

	// AllocsPerRun's own warm-up call is the job that grows the storage;
	// every measured one borrows it back.
	var sc client.Scratch
	lent := testing.AllocsPerRun(5, func() {
		c = client.NewUDP(clk, clipFrames)
		c.Pool, c.Scratch = pool, &sc
		wholeClipReceive(c, clipFrames, pool)
		if got := len(c.Finish().Records); got != clipFrames {
			t.Fatalf("reassembled %d of %d frames on lent storage", got, clipFrames)
		}
		sc.Reset()
	})
	if lent > 2 {
		t.Errorf("whole-clip UDP receive on a warmed Scratch allocates %.0f, want <= 2 (the receiver and its trace header)", lent)
	}

	const receivers, every = 320, 12
	cls := make([]*client.UDP, receivers)
	kept := 0
	lossyJob := func(sc *client.Scratch) {
		for i := range cls {
			cls[i] = client.NewUDP(clk, clipFrames)
			cls[i].Pool, cls[i].Scratch = pool, sc
		}
		for seq := 0; seq < clipFrames; seq++ {
			for i, c := range cls {
				if (seq+i)%every == 0 {
					for fi := 0; fi < 3; fi++ {
						p := pool.Get()
						p.Size, p.FrameSeq, p.FragIndex, p.FragCount = 1200, seq, fi, 3
						c.Handle(p)
					}
				}
			}
		}
		kept = 0
		for _, c := range cls {
			kept += len(c.Finish().Records)
		}
		sc.Reset()
	}
	// On a fresh Scratch, beyond the receivers, their trace headers and
	// the receive storage: the Scratch itself and the doublings of its
	// four per-receiver lists (receiver and record loans, free record
	// arrays and slot tables).
	cold := testing.AllocsPerRun(3, func() { lossyJob(new(client.Scratch)) })
	lists := 1 + 4*(bits.Len(uint(receivers-1))+1)
	if want := float64(receivers*(2+1+1) + slabAllocs(kept) + lists); cold > want {
		t.Errorf("%d lossy receivers on a fresh Scratch allocate %.0f, want <= %.0f", receivers, cold, want)
	}
	if kept < receivers*clipFrames/every {
		t.Fatalf("%d lossy receivers kept %d frames — budget measured a broken receiver", receivers, kept)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	lossyJob(new(client.Scratch))
	runtime.ReadMemStats(&m1)
	// Size classes round a slot table up by 10 % and a record array by
	// 14 %; the loan lists add under 64 KB.
	headers := unsafe.Sizeof(client.UDP{}) + unsafe.Sizeof(trace.Trace{})
	storage := receivers*(int(headers)+4*clipFrames) + (kept+1023)/1024*1024*16 + kept*int(unsafe.Sizeof(trace.FrameRecord{}))
	got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(1.2*float64(storage))+64<<10
	t.Logf("%d lossy receivers: %d allocations, %d bytes for %d bytes of storage", receivers, int(cold), got, storage)
	if got > limit {
		t.Errorf("%d lossy receivers allocate %d bytes for %d kept frames, want <= %d (storage %d)", receivers, got, kept, limit, storage)
	}
	var shared client.Scratch
	warm := testing.AllocsPerRun(3, func() { lossyJob(&shared) })
	if warm > 2*receivers {
		t.Errorf("a second lossy job on the same Scratch allocates %.0f, want <= %d (the receivers and their trace headers)", warm, 2*receivers)
	}
}

// TestWarmWorkerJobAllocatesNoReceiveStorage pins what a worker's Ctx
// lends: the second and later grid points a worker runs build on the
// simulator, the ring storage and the receive storage the first one
// grew. A local-testbed job on a warm Ctx is measured against building
// its topology alone (on the same Ctx, so on the Reset simulator): what
// remains above the build is the trace label (2–3), and on the TCP path
// the endpoints' segment bookkeeping (≈ 40) and the assembler's
// three-entry result buffer (2–3) — 4 and 45 allocations today, none of
// them a simulator, a lattice, an event chunk, overflow-heap growth,
// ring growth or receive storage. (Before the engine was lent these
// budgets were 32 and 88: rings doubling to their high-water marks, 19
// and 26, the overflow heap, 3 and 7, and an event chunk.) What keeps
// this test from passing vacuously is the same job on a Ctx without the
// engine arena — no Sim, and a new Pool per job, so no lent rings — which
// must pay at least the simulator, its RNG and lattice, an event chunk,
// the overflow heap's and the rings' growth on top: 64 and 76 today.
func TestWarmWorkerJobAllocatesNoReceiveStorage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		useTCP   bool
		overhead float64 // allowed above the topology build
		engine   float64 // the least the job must allocate without the engine arena on top of its cost with it
	}{
		{"UDP", false, 6, 26},
		{"TCP", true, 50, 37},
	} {
		spec := experiment.Figure15Spec()
		spec.UseTCP = tc.useTCP
		// The last point delivers the whole clip: the most any receiver
		// grows, so the worst case for storage that was not lent.
		spec.Tokens = []units.BitRate{1.1e6, 2.5e6}
		spec.Depths = spec.Depths[:1]
		jobs := spec.Jobs()

		warm := &experiment.Ctx{Sim: sim.New(0), Pool: packet.NewPool(), Recv: new(client.Scratch)}
		reclaim := func(c *experiment.Ctx) {
			c.Recv.Reset()
			c.Pool.Reset()
		}
		jobs[0](warm) // the worker's first grid point, a lossy one
		reclaim(warm)
		var p experiment.Point
		job := testing.AllocsPerRun(3, func() {
			p = jobs[1](warm)
			reclaim(warm)
		})
		if p.FrameLoss != 0 {
			t.Fatalf("%s: the measured point lost %.3f of its frames — budget measured a thinned clip", tc.name, p.FrameLoss)
		}
		enc := video.CachedVBR(spec.Clip, units.BitRate(spec.CapKbps)*units.Kbps)
		cfg := topology.LocalConfig{Seed: spec.Seed, Enc: enc, TokenRate: spec.Tokens[1],
			Depth: spec.Depths[0], UseTCP: tc.useTCP, Pool: warm.Pool, Sim: warm.Sim, Recv: warm.Recv}
		build := testing.AllocsPerRun(3, func() {
			topology.BuildLocal(cfg)
			reclaim(warm)
		})
		// Without the engine arena: a new simulator and a new packet
		// arena (so no lent rings) for every job, receive storage lent.
		recv := new(client.Scratch)
		unlent := testing.AllocsPerRun(3, func() {
			jobs[1](&experiment.Ctx{Pool: packet.NewPool(), Recv: recv})
			recv.Reset()
		})
		t.Logf("%s: warm job %.0f, topology build %.0f, same job without the engine arena %.0f", tc.name, job, build, unlent)
		if job > build+tc.overhead {
			t.Errorf("%s: a job on a warm Ctx allocates %.0f, %.0f above its topology build (%.0f); want <= %.0f above",
				tc.name, job, job-build, build, tc.overhead)
		}
		if unlent < job+tc.engine {
			t.Errorf("%s: the job costs %.0f without the engine arena and %.0f with — lending saved under %.0f allocations, so the budget proves nothing",
				tc.name, unlent, job, tc.engine)
		}

		// Nothing of a finished job outlives the next one on the same Ctx:
		// once that has built and run, the previous job's elements are
		// garbage — even when the job stopped at its horizon mid-stream,
		// with packets in flight and their events pending. The finalizer
		// sits on the bottleneck link's scheduler, which nothing but the
		// link reaches: the Link itself points at itself through its
		// pre-bound timers, and Go does not finalize an object on a cycle.
		prev := topology.BuildLocal(cfg)
		if prev.TCPServer != nil {
			prev.TCPServer.Start()
		} else {
			prev.UDPServer.Start()
		}
		prev.Sim.RunUntil(5 * units.Second)
		if prev.Sim.Pending() == 0 {
			t.Fatalf("%s: the stopped job left no event pending", tc.name)
		}
		collected := make(chan struct{})
		runtime.SetFinalizer(prev.Net.Link("r3port").Sched, func(any) { close(collected) })
		prev = nil
		reclaim(warm)
		jobs[1](warm)
		reclaim(warm)
		if !finalized(collected) {
			t.Errorf("%s: the previous job's bottleneck link is still reachable after the next job ran on the same Ctx", tc.name)
		}
	}
}

// finalized collects garbage until done closes, for up to a second.
func finalized(done <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// countdown is a Timer that does nothing: cold-start fodder.
type countdown struct{ fired int }

func (c *countdown) Fire(units.Time) { c.fired++ }

// TestColdStartsAllocateInChunks pins the two arenas' cold paths: a
// thousand packets taken from an empty pool, and a thousand events
// scheduled on a new simulator inside its calendar window, cost one
// allocation per 64 — ceil(1000/64) = 16 chunks, and nothing else.
func TestColdStartsAllocateInChunks(t *testing.T) {
	const n, budget = 1000, 1000/64 + 2
	held := make([]*packet.Packet, n)
	var pool *packet.Pool
	gets := testing.AllocsPerRun(5, func() {
		pool = packet.NewPool() // one more allocation, inside the budget
		for i := range held {
			held[i] = pool.Get()
		}
	})
	if gets > budget {
		t.Errorf("%d cold Pool.Gets allocate %.0f, want <= %d", n, gets, budget)
	}
	if pool.News != n || pool.Free() != 0 {
		t.Errorf("after %d cold Gets News = %d, Free = %d; want %d and 0", n, pool.News, pool.Free(), n)
	}
	for _, p := range held {
		pool.Put(p)
	}
	if pool.Free() != n {
		t.Errorf("%d packets returned, Free = %d", n, pool.Free())
	}

	var s *sim.Simulator
	tm := &countdown{}
	scheduled := testing.AllocsPerRun(5, func() {
		s = sim.New(1) // the simulator, its RNG and the lattice: three more
		for i := 0; i < n; i++ {
			s.AfterTimer(units.Time(i)*units.Microsecond, tm)
		}
	})
	if scheduled > budget+3 {
		t.Errorf("%d cold schedules allocate %.0f, want <= %d", n, scheduled, budget+3)
	}
	if s.Run(); tm.fired != n {
		t.Fatalf("%d events fired, want the last simulator's %d", tm.fired, n)
	}
}

// TestClassifyAllocationBudget pins the DSCP lookup tables and the DRR
// service ring at zero allocations: classification is an array index,
// and the ring rotates in place instead of marching down its backing
// array.
func TestClassifyAllocationBudget(t *testing.T) {
	prio := queue.NewEFPriority(0, 0)
	match := queue.MatchDSCP(packet.AF11, packet.AF12, packet.AF13)
	drr := queue.NewDRR(
		queue.ClassSpec{Name: "ef", Match: queue.MatchDSCP(packet.EF), Quantum: 300},
		queue.ClassSpec{Name: "af", Match: match, Quantum: 300},
		queue.ClassSpec{Name: "be", Quantum: 300},
	)
	pkts := []*packet.Packet{
		{Size: 1500, DSCP: packet.EF}, {Size: 1500, DSCP: packet.AF12}, {Size: 1500, DSCP: packet.BestEffort},
	}
	// Three backlogged classes with quanta a fifth of a packet: four
	// visits in five only rotate the ring, 15 rotations a cycle.
	cycle := func() {
		for _, p := range pkts {
			prio.Enqueue(p)
			drr.Enqueue(p)
		}
		for range pkts {
			if prio.Dequeue() == nil || drr.Dequeue() == nil {
				t.Fatal("scheduler lost a packet")
			}
		}
	}
	cycle() // FIFO rings and the service ring reach their capacity
	matched := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000/15; i++ {
			cycle()
		}
		for d := 0; d < 256; d++ {
			if match(packet.DSCP(d)) {
				matched++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("classify + DRR rotation allocates %.0f per 10,000 rotations, want 0", allocs)
	}
	if matched == 0 || matched%3 != 0 {
		t.Fatalf("MatchDSCP matched %d code points per sweep, want the three AF1x", matched)
	}
}

// TestEvaluatorAllocationBudget pins the reusable evaluation scratch:
// once an Evaluator has scored one clip, scoring another of the same
// length — MPEG decode, concealment, VQM — runs on the buffers it
// already has (0 allocations today).
func TestEvaluatorAllocationBudget(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	tr := &trace.Trace{ClipFrames: len(enc.Frames)}
	for i := range enc.Frames {
		if i%50 == 7 {
			continue // a lost frame every 50: freezes, and a damaged GoP
		}
		at := units.Time(i) * video.FrameInterval()
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 3})
	}
	var ev experiment.Evaluator
	want := ev.Evaluate(tr, enc, enc)
	var got experiment.Evaluation
	allocs := testing.AllocsPerRun(10, func() { got = ev.Evaluate(tr, enc, enc) })
	if allocs > 8 {
		t.Errorf("warm Evaluator allocates %.0f per clip, want <= 8", allocs)
	}
	if got != want || got.FrameLoss == 0 || got.Quality == 1 {
		t.Fatalf("warm evaluation %+v, first %+v — budget measured a degenerate clip", got, want)
	}
}

package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokenbucket"
	"repro/internal/units"
	"repro/internal/video"
)

// The kernel suite: each layer's hot path replayed alone through its
// public API. A kernel reports ns and allocations per operation; where
// the path needs the event engine to run at all (a link's transmit and
// deliver timers, the mixture's two wheels), the engine's share is
// taken out again at the cost of one event in an almost empty queue
// (simFloor), so that layer count × kernel ns does not count the same
// event under both the layer and sim.

// kernelResult is one kernel's reading.
type kernelResult struct {
	ns     float64 // per operation, median over batches
	allocs float64 // per operation
}

// kernelBatches is how many timed batches the median is taken over.
const kernelBatches = 5

// runKernel times batch() kernelBatches times. batch performs (and
// returns) a number of operations plus the number of sim events fired
// on their behalf.
func runKernel(floorNS float64, batch func() (ops, events int)) kernelResult {
	var ns []float64
	var allocs float64
	batch() // warm: pools filled, rings grown
	for i := 0; i < kernelBatches; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		ops, events := batch()
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if ops == 0 {
			continue // a toy-sized batch can be empty
		}
		net := float64(d.Nanoseconds()) - floorNS*float64(events)
		if net < 0 {
			net = 0
		}
		ns = append(ns, net/float64(ops))
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	}
	if len(ns) == 0 {
		return kernelResult{}
	}
	sort.Float64s(ns)
	return kernelResult{ns: median(ns), allocs: allocs}
}

// fakeClock is the simulated time of kernels that need no event queue.
type fakeClock struct{ t units.Time }

func (c *fakeClock) Now() units.Time { return c.t }

// rearm is a self-re-arming Timer: the closure-free scheduling idiom
// every hot path of the simulator uses.
type rearm struct {
	s     *sim.Simulator
	gap   units.Time
	state uint64
	// victim, when set, is cancelled and re-armed on every fourth fire:
	// the restart pattern of a retransmission timer.
	victim *rearm
	h      sim.Handle
	fires  int
}

func (r *rearm) next() units.Time {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.gap/2 + units.Time(r.state>>33)%r.gap // uniform in [gap/2, 3gap/2)
}

func (r *rearm) Fire(units.Time) {
	r.fires++
	if r.victim != nil && r.fires%4 == 0 {
		r.victim.h.Cancel()
		r.victim.h = r.s.AfterTimer(r.victim.next(), r.victim)
	}
	r.h = r.s.AfterTimer(r.next(), r)
}

// simKernel runs timers self-re-arming Timers whose gaps average
// timers × meanGap (so the queue as a whole fires every meanGap) for
// about events events, and returns ns per fired event.
func simKernel(timers int, meanGap units.Time, cancels bool, events int) kernelResult {
	s := sim.New(1)
	ts := make([]*rearm, timers)
	for i := range ts {
		ts[i] = &rearm{s: s, gap: meanGap * units.Time(timers), state: uint64(i + 1)}
	}
	for i, t := range ts {
		if cancels {
			t.victim = ts[(i+1)%timers]
		}
		t.h = s.AfterTimer(t.next(), t)
	}
	s.RunUntil(2 * meanGap * units.Time(timers)) // every timer has fired: steady state
	window := meanGap * units.Time(events)
	return runKernel(0, func() (int, int) {
		before := s.Fired()
		s.RunUntil(s.Now() + window)
		n := int(s.Fired() - before)
		return n, 0
	})
}

// kernelSuite is every kernel's reading, keyed by metric name.
type kernelSuite map[string]kernelResult

// runKernels replays every layer. scale shrinks the operation counts
// for the smoke test (1 is the measuring size).
func runKernels(scale int) kernelSuite {
	n := func(ops int) int {
		if ops /= scale; ops < 64 {
			return 64
		}
		return ops
	}
	out := kernelSuite{}

	out["sim.kernel_dense_ns"] = simKernel(4096, units.Microsecond, false, n(400000))
	out["sim.kernel_sparse_ns"] = simKernel(64, units.Millisecond, true, n(400000))
	// One timer alone: the floor an event costs when the queue holds
	// next to nothing, which is the engine's share inside the kernels
	// below. Not a reported metric.
	floor := simKernel(1, 10*units.Microsecond, false, n(400000)).ns

	pool := packet.NewPool()
	sink := &packet.Sink{Pool: pool}
	get := func(flow packet.FlowID, dscp packet.DSCP) *packet.Packet {
		p := pool.Get()
		p.Flow, p.DSCP, p.Size = flow, dscp, units.EthernetMTU
		return p
	}

	{ // Link.Handle + drain: a burst into an EF-priority port, run until delivered.
		s := sim.New(1)
		l := link.New(s, units.Gbps, 10*units.Microsecond, queue.NewEFPriority(0, 0), sink)
		l.Pool = pool
		burst, rounds := 64, n(100000)/64
		out["link.kernel_ns"] = runKernel(floor, func() (int, int) {
			before := s.Fired()
			for r := 0; r < rounds; r++ {
				for i := 0; i < burst; i++ {
					l.Handle(get(1, packet.EF))
				}
				s.Run()
			}
			return burst * rounds, int(s.Fired() - before)
		})
	}

	{ // EF-priority enqueue + dequeue at a standing depth of 32.
		q := queue.NewEFPriority(0, 0)
		for i := 0; i < 32; i++ {
			q.Enqueue(get(1, packet.EF))
		}
		ops := n(1000000)
		out["queue.kernel_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				dscp := packet.EF
				if i&1 == 1 {
					dscp = packet.BestEffort
				}
				q.Enqueue(get(2, dscp))
				pool.Put(q.Dequeue())
			}
			return ops, 0
		})
	}

	{ // Policer.Handle over a contiguous fleet of policers, visited in flow order.
		clock := &fakeClock{}
		pols := make([]tokenbucket.Policer, 25000)
		for i := range pols {
			pols[i].Init(clock, 1.3*units.Mbps, 4500, packet.EF, sink)
			pols[i].Pool = pool
		}
		passes := n(1000000)/len(pols) + 1
		out["tokenbucket.kernel_ns"] = runKernel(0, func() (int, int) {
			for r := 0; r < passes; r++ {
				for i := range pols {
					clock.t += 40 // ns: a 1 µs-spaced fleet, 25k flows ≈ one visit per ms
					pols[i].Handle(get(packet.FlowID(i), packet.BestEffort))
				}
			}
			return passes * len(pols), 0
		})
	}

	{ // Router.Handle through 512 FlowMatch rules (the demux of the multi-flow runs).
		r := node.NewRouter("demux", sink)
		for i := 0; i < 512; i++ {
			r.AddRule("flow", node.FlowMatch(packet.FlowID(i+1)), sink)
		}
		ops := n(1000000)
		out["node.kernel_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				r.Handle(get(packet.FlowID(1+(i*37)%512), packet.EF))
			}
			return ops, 0
		})
	}

	{ // Aggregate.Handle: Welford moments plus three P² sketches per delivery.
		clock := &fakeClock{t: units.Second}
		agg := client.NewAggregate(clock)
		agg.Pool = pool
		ops := n(1000000)
		out["client.kernel_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				clock.t += 1000
				p := get(1, packet.EF)
				p.SentAt = clock.t - units.Time(5000000+(i*7919)%3000000)
				agg.Handle(p)
			}
			return ops, 0
		})
	}

	{ // One P² sketch.
		sk := stats.NewP2Quantile(0.95)
		ops := n(2000000)
		state := uint64(1)
		out["stats.kernel_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				sk.Add(float64(state>>40) / float64(1<<24))
			}
			return ops, 0
		})
	}

	{ // A two-class mixture wired straight into a sink: wheels, jitter, emission.
		lost := flowbatch.TruncateSchedule(flowbatch.CachedPacedSchedule(video.CachedCBR(video.Lost(), 1.0e6)), units.Second)
		dark := flowbatch.TruncateSchedule(flowbatch.CachedPacedSchedule(video.CachedCBR(video.Dark(), 1.5e6)), units.Second)
		chain := flowbatch.ChainSpec{AccessRate: 100 * units.Mbps, AccessDelay: 500 * units.Microsecond,
			JitterMax: 3 * units.Millisecond}
		flows := n(4000)
		out["flowbatch.kernel_ns"] = runKernel(floor, func() (int, int) {
			s := sim.New(1)
			mix := &flowbatch.BatchedMixture{
				Sim: s, BaseFlow: 1, Next: []packet.Handler{sink}, Pool: pool,
				Classes: []flowbatch.MixtureClass{
					{Sched: lost, N: flows * 4 / 5, Offset: units.Second / units.Time(flows), Chain: chain},
					{Sched: dark, N: flows / 5, Phase: units.Millisecond, Offset: 5 * units.Second / units.Time(flows), Chain: chain},
				},
			}
			mix.Start()
			s.Run()
			return mix.TotalSent(), int(s.Fired())
		})
	}

	{ // The process-global packet id counter.
		ops := n(4000000)
		var last uint64
		out["packet.kernel_id_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				last = packet.NewID()
			}
			return ops, 0
		})
		_ = last
	}

	{ // Recorder.Emit into the bounded ring.
		rec := ptrace.NewRecorder(ptrace.Config{})
		clock := &fakeClock{}
		rec.SetClock(clock)
		hop := rec.Hop("kernel")
		ops := n(2000000)
		out["ptrace.kernel_emit_ns"] = runKernel(0, func() (int, int) {
			for i := 0; i < ops; i++ {
				clock.t += 1000
				rec.Emit(ptrace.Event{Kind: ptrace.LinkTx, Hop: hop, Flow: 1, PktID: uint64(i),
					Size: 1500, DSCP: packet.EF, FrameSeq: int32(i >> 3)})
			}
			return ops, 0
		})
	}
	return out
}

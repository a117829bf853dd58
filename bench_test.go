package repro_test

// One benchmark per table and figure of the paper (README.md's "The
// scenario registry" and `dsbench -list` carry the index). Figure
// benchmarks run scaled-down sweeps (thinned token grids, single seed)
// so `go test -bench=. -benchmem` finishes in minutes while still
// exercising the full pipeline; cmd/dsbench runs the full-resolution
// versions.

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/tokenbucket"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

// --- Tables ---

// relayFeeder offers one EF packet to a link every 6 ms, 1000 in all.
type relayFeeder struct {
	s    *sim.Simulator
	l    *link.Link
	sent int
}

func (f *relayFeeder) Fire(units.Time) {
	f.l.Handle(&packet.Packet{ID: uint64(f.sent), Size: 1500, DSCP: packet.EF})
	if f.sent++; f.sent < 1000 {
		f.s.AfterTimer(6*units.Millisecond, f)
	}
}

func BenchmarkTable1FrameRelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		var sink packet.Sink
		l := link.New(s, link.Table1()[0].CIR, units.Millisecond, queue.NewEFPriority(100, 100), &sink)
		s.AfterTimer(0, &relayFeeder{s: s, l: l})
		s.Run()
		if sink.Count != 1000 {
			b.Fatalf("delivered %d", sink.Count)
		}
	}
}

func BenchmarkTable2MPEGProperties(b *testing.B) {
	clip := video.Lost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := video.Table2(clip)
		if len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable3WMVProperties(b *testing.B) {
	lost, dark := video.Lost(), video.Dark()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = video.Table3(lost)
		_ = video.Table3(dark)
	}
}

func BenchmarkTable4Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table4() == "" {
			b.Fatal("empty")
		}
	}
}

// --- Figures ---

func BenchmarkFigure6TransmissionRates(b *testing.B) {
	clip := video.Lost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiment.Figure6(clip, 30)
	}
}

func benchQBone(b *testing.B, spec experiment.QBoneSpec) {
	b.Helper()
	spec.Tokens = experiment.Scale(spec.Tokens, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiment.RunScenarioOpts(spec, experiment.RunOptions{})
		if len(fig.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure7QBoneLost17(b *testing.B)  { benchQBone(b, experiment.Figure7Spec()) }
func BenchmarkFigure8QBoneLost15(b *testing.B)  { benchQBone(b, experiment.Figure8Spec()) }
func BenchmarkFigure9QBoneLost10(b *testing.B)  { benchQBone(b, experiment.Figure9Spec()) }
func BenchmarkFigure10QBoneDark17(b *testing.B) { benchQBone(b, experiment.Figure10Spec()) }
func BenchmarkFigure11QBoneDark15(b *testing.B) { benchQBone(b, experiment.Figure11Spec()) }
func BenchmarkFigure12QBoneDark10(b *testing.B) { benchQBone(b, experiment.Figure12Spec()) }

func benchRelative(b *testing.B, spec experiment.RelativeSpec) {
	b.Helper()
	spec.Tokens = experiment.Scale(spec.Tokens, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiment.RunScenarioOpts(spec, experiment.RunOptions{})
		if len(fig.Series) != 3 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure13DarkRelative(b *testing.B) { benchRelative(b, experiment.Figure13Spec()) }
func BenchmarkFigure14LostRelative(b *testing.B) { benchRelative(b, experiment.Figure14Spec()) }

func benchLocal(b *testing.B, spec experiment.LocalSpec) {
	b.Helper()
	spec.Tokens = experiment.Scale(spec.Tokens, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiment.RunScenarioOpts(spec, experiment.RunOptions{})
		if len(fig.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure15LocalDrop(b *testing.B)   { benchLocal(b, experiment.Figure15Spec()) }
func BenchmarkFigure16LocalShaped(b *testing.B) { benchLocal(b, experiment.Figure16Spec()) }

// --- Ablations: one QBone point each at the profiles of the abl-shape
// and abl-hops scenarios (registered in internal/experiment/ablations.go,
// their findings asserted in internal/experiment/ablations_test.go) ---

// qbonePoint streams enc across the QBone at one (token rate, depth)
// at DefaultSeed, builds on pool (nil: a fresh one), scores the
// received video with ev and returns the simulator events it fired.
func qbonePoint(ev *experiment.Evaluator, pool *packet.Pool, enc *video.Encoding, tok units.BitRate, depth units.ByteSize, crossLoad float64) uint64 {
	q := topology.BuildQBone(topology.QBoneConfig{
		Seed: experiment.DefaultSeed, Enc: enc, TokenRate: tok, Depth: depth,
		CrossLoad: crossLoad, Pool: pool,
	})
	q.Client.Tolerance = client.SliceTolerance
	q.Run()
	ev.Evaluate(q.Client.Trace(), enc, enc)
	return q.Sim.Fired()
}

func BenchmarkAblationShaperVsDropper(b *testing.B) {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	var ev experiment.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qbonePoint(&ev, nil, enc, 1.75e6, 3000, 0)
	}
}

func BenchmarkAblationHopCount(b *testing.B) {
	// Multi-hop EF burst accumulation: same profile, more hops.
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	var ev experiment.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qbonePoint(&ev, nil, enc, 1.1e6, 4500, 0.02)
	}
}

// BenchmarkEndToEndQBone runs one full QBone point — paced server,
// campus jitter, border policer, four EF-priority backbone hops with
// Poisson cross traffic, client reassembly, VQM scoring — on a reused
// packet arena, and reports simulator events/sec. This is the
// end-to-end number BENCH_PR3.json tracks.
func BenchmarkEndToEndQBone(b *testing.B) {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	pool := packet.NewPool()
	var ev experiment.Evaluator
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += qbonePoint(&ev, pool, enc, 1.9e6, 3000, 0.15)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// --- Micro-benchmarks for the hot substrate paths ---

// BenchmarkLinkHotPath measures the full per-packet link path —
// enqueue, serialization event, propagation event, delivery — on a
// delayed link. The transmit path is closure-free (pre-bound
// callbacks), so allocs/op is the two heap events plus nothing else.
func BenchmarkLinkHotPath(b *testing.B) {
	s := sim.New(1)
	var sink packet.Sink
	l := link.New(s, 100*units.Mbps, units.Millisecond, queue.NewEFPriority(0, 0), &sink)
	var p packet.Packet
	p.Size = 1500
	p.DSCP = packet.EF
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Handle(&p)
		s.Run() // drain: one tx-done event, one delivery event
	}
	if sink.Count != b.N {
		b.Fatalf("delivered %d of %d", sink.Count, b.N)
	}
}

func BenchmarkTokenBucketConform(b *testing.B) {
	tb := tokenbucket.NewBucket(2*units.Mbps, 3000)
	now := units.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 6 * units.Millisecond
		tb.Conform(now, 1500)
	}
}

func BenchmarkSRTCMMark(b *testing.B) {
	m := tokenbucket.NewSRTCM(2*units.Mbps, 3000, 6000)
	now := units.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2 * units.Millisecond
		m.Mark(now, 1500)
	}
}

// benchTicker is a self-re-arming Timer: each firing schedules the
// next by the pattern's inter-event gap until limit events have been
// scheduled in all, however many copies of it are pending at once.
type benchTicker struct {
	s                *sim.Simulator
	gap              func(i int) units.Time
	fired, scheduled int
	limit            int
}

func (t *benchTicker) arm(i int) {
	t.scheduled++
	t.s.AfterTimer(t.gap(i), t)
}

func (t *benchTicker) Fire(units.Time) {
	t.fired++
	if t.scheduled < t.limit {
		t.arm(t.scheduled + 1)
	}
}

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	s := sim.New(1)
	t := &benchTicker{s: s, limit: b.N, gap: func(int) units.Time { return units.Microsecond }}
	b.ResetTimer()
	t.arm(0)
	s.Run()
}

func BenchmarkEncodeCBR(b *testing.B) {
	clip := video.Lost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = video.EncodeCBR(clip, 1.5e6)
	}
}

func BenchmarkVQMScore(b *testing.B) {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	iv := video.FrameInterval()
	for i := 0; i < enc.Clip.FrameCount(); i++ {
		if i%97 == 0 {
			continue // sprinkle losses so scoring does real work
		}
		at := units.Time(int64(i)) * iv
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 1})
	}
	d := render.Conceal(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vqm.Score(d, enc, enc)
	}
}

func BenchmarkConceal(b *testing.B) {
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	iv := video.FrameInterval()
	for i := 0; i < enc.Clip.FrameCount(); i++ {
		at := units.Time(int64(i)) * iv
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = render.Conceal(tr)
	}
}

// --- Calendar-queue bucket-width matrix ---

// benchBucketWidth keeps a 512-event working set live in a simulator
// built with an explicit calendar bucket width, each firing event
// rescheduling itself by the pattern's next inter-event gap. The
// matrix (pattern × width) maps where the calendar degrades: dense
// patterns punish wide buckets (long intra-bucket scans), sparse ones
// punish narrow buckets (empty-bucket walks), bimodal ones stress the
// overflow path. Width is a pure performance knob — firing order is
// identical at every width (the sim package's width-invariance test
// pins that) — so this matrix is the evidence behind the default.
func benchBucketWidth(b *testing.B, width units.Time, gap func(i int) units.Time) {
	s := sim.NewWithBucketWidth(1, width)
	const working = 512
	t := &benchTicker{s: s, limit: b.N, gap: gap}
	b.ResetTimer()
	for i := 0; i < working && t.scheduled < b.N; i++ {
		t.arm(i)
	}
	s.Run()
	if t.fired != t.scheduled {
		b.Fatalf("fired %d of %d", t.fired, t.scheduled)
	}
}

// BenchmarkCalendarBucketWidth is the pattern × width matrix.
func BenchmarkCalendarBucketWidth(b *testing.B) {
	patterns := []struct {
		name string
		gap  func(i int) units.Time
	}{
		// Dense: sub-bucket gaps at the default width — many events per
		// bucket, the intra-bucket ordered-insert path dominates.
		{"dense", func(i int) units.Time {
			return units.Time(i%23+1) * units.Microsecond
		}},
		// Sparse: multi-millisecond gaps — most buckets empty, the
		// empty-bucket advance path dominates.
		{"sparse", func(i int) units.Time {
			return units.Time(i%11+5) * units.Millisecond
		}},
		// Bimodal: microsecond bursts separated by 20 ms silences — the
		// link-lattice-plus-frame-interval shape real runs produce.
		{"bimodal", func(i int) units.Time {
			if i%64 == 0 {
				return 20 * units.Millisecond
			}
			return units.Time(i%3+1) * units.Microsecond
		}},
	}
	widths := []struct {
		name string
		w    units.Time
	}{
		{"w=1us", units.Microsecond},
		{"w=50us", 50 * units.Microsecond},
		{"w=default", sim.DefaultBucketWidth},
		{"w=4ms", 4 * units.Millisecond},
		// Width 0 = the density-adaptive policy: it should track the
		// best pinned column of each pattern once the width converges.
		{"w=adaptive", 0},
	}
	for _, p := range patterns {
		for _, w := range widths {
			p, w := p, w
			b.Run(p.name+"/"+w.name, func(b *testing.B) {
				benchBucketWidth(b, w.w, p.gap)
			})
		}
	}
}

// BenchmarkNFlowWideSharded runs one nflow-wide grid point (batched,
// 24 Mbps bottleneck, 53 ms stagger) at increasing intra-run shard
// counts. The shards=1 row is the serial baseline; the speedup at 4
// shards on N=512 is the headline number BENCH_PR6.json records, with
// byte-identical output pinned by the shardeq harness.
func BenchmarkNFlowWideSharded(b *testing.B) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	for _, n := range []int{128, 512} {
		for _, shards := range []int{1, 2, 4, 8} {
			n, shards := n, shards
			b.Run(fmt.Sprintf("N=%d/shards=%d", n, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := topology.BuildMultiFlow(topology.MultiFlowConfig{
						Seed: experiment.DefaultSeed, Enc: enc, N: n,
						TokenRate: 1.3e6, Depth: 4500, BottleneckRate: 24e6,
						BELoad: 0.15, Stagger: 53 * units.Millisecond,
						Batch: true, Shards: shards,
					})
					m.Run()
					if m.Bottleneck.Sent == 0 {
						b.Fatal("bottleneck carried nothing")
					}
				}
			})
		}
	}
}

// BenchmarkFleetMixture runs one fleet-style mixture point — two
// equivalence classes on the batched mixture fan-out with aggregated
// per-class receivers — at increasing total flow counts. Events and
// heap growing sublinearly in N here is the micro-scale version of
// what BENCH_PR7.json records for the full nflow-fleet sweep.
func BenchmarkFleetMixture(b *testing.B) {
	viewers := video.CachedCBR(video.Lost(), 1.0e6)
	elephants := video.CachedCBR(video.Dark(), 1.5e6)
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			vn := n * 85 / 100
			en := n - vn
			for i := 0; i < b.N; i++ {
				m := topology.BuildMultiFlow(topology.MultiFlowConfig{
					Seed: experiment.DefaultSeed,
					Classes: []topology.FlowClass{
						{Name: "viewers", Enc: viewers, N: vn, TokenRate: 1.3e6,
							Truncate: units.Second,
							Stagger:  4 * units.Second / units.Time(vn)},
						{Name: "elephants", Enc: elephants, N: en, TokenRate: 1.95e6,
							Truncate: units.Second, Phase: units.Millisecond,
							Stagger: 4 * units.Second / units.Time(en)},
					},
					Depth: 4500, BottleneckRate: 650e6,
					Sched: topology.PriorityBottleneck, BELoad: 0.02,
					Batch: true, AggregateStats: true,
				})
				m.Run()
				if m.Aggregates[0].Packets == 0 {
					b.Fatal("viewer class delivered nothing")
				}
			}
		})
	}
}

// BenchmarkNFlowPoint contrasts one wide nflow grid point built on N
// real paced servers (per-flow access chains, per-frame closures)
// against the flow-batched fan-out source covering the same N virtual
// flows — the byte-identical fast path nflow-wide sweeps on.
func BenchmarkNFlowPoint(b *testing.B) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	for _, bc := range []struct {
		name  string
		batch bool
	}{{"unbatched", false}, {"batched", true}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := topology.BuildMultiFlow(topology.MultiFlowConfig{
					Seed: experiment.DefaultSeed, Enc: enc, N: 64,
					TokenRate: 1.3e6, Depth: 4500, BottleneckRate: 6e6,
					BELoad: 0.15, Stagger: 53 * units.Millisecond, Batch: bc.batch,
				})
				m.Run()
				if m.Bottleneck.Sent == 0 {
					b.Fatal("bottleneck carried nothing")
				}
			}
		})
	}
}

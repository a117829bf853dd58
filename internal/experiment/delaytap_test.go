package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// tapReading is what the ef-service ablation reads off a QBone job's
// delay tap.
type tapReading struct{ mean, p99, jitter float64 }

// delayTapJob runs one ef-service grid point on ctx, reads its delay
// tap, and hands the Ctx's loans back as the runner does at the job
// boundary. It returns the tap, which outlives the job.
func delayTapJob(ctx *Ctx, cfg topology.QBoneConfig) (*stats.DelayCollector, tapReading) {
	_, q := runQBonePointLabeled(ctx, "", cfg, cfg.Enc)
	d := q.Delay
	r := tapReading{d.Delay.Mean(), d.Delay.Percentile(99), d.Jitter.Mean()}
	ctx.reclaim()
	return d, r
}

// allocated reports the heap objects and bytes f allocates.
func allocated(f func()) (mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

func delayTapConfig() topology.QBoneConfig {
	return topology.QBoneConfig{Seed: DefaultSeed, Enc: video.CachedCBR(video.Lost(), 1.0e6),
		TokenRate: 1.3e6, Depth: 4500}
}

// TestWarmQBoneJobAllocatesNoDelaySamples pins the tap's allocation
// budget: the delay tap keeps one float64 per video packet, but on a
// worker's Ctx it records them into the array the Ctx's Scratch took
// back from the job before, so a second QBone job allocates no sample
// storage. Beyond its topology build the warm job allocates 20 KB
// today, less than the 58 KB of one array of its 7,215 samples (before
// the tap borrowed: 539 KB in some 40 more objects, the delay and
// jitter arrays' append growth). What keeps the budget from passing
// vacuously is the same job on a fresh Scratch, which must grow at
// least one such array.
func TestWarmQBoneJobAllocatesNoDelaySamples(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	cfg := delayTapConfig()
	worker := &Ctx{Sim: sim.New(0), Pool: packet.NewPool(), Recv: new(client.Scratch)}
	// The worker's first job grows the array; count what it keeps.
	_, q := runQBonePointLabeled(worker, "", cfg, cfg.Enc)
	var n int
	fmt.Sscanf(q.Delay.Delay.String(), "n=%d", &n)
	worker.reclaim()
	samples := uint64(8 * n)

	jobObjs, jobBytes := allocated(func() { delayTapJob(worker, cfg) })
	build := cfg
	build.Pool, build.Sim, build.Recv = worker.Pool, worker.Sim, worker.Recv
	buildObjs, buildBytes := allocated(func() {
		topology.BuildQBone(build)
		worker.reclaim()
	})
	fresh := &Ctx{Sim: worker.Sim, Pool: worker.Pool, Recv: new(client.Scratch)}
	_, freshBytes := allocated(func() { delayTapJob(fresh, cfg) })
	t.Logf("%d delay samples (%d B); warm job %d objects, %d B; its build %d objects, %d B; on a fresh Scratch %d B",
		n, samples, jobObjs, jobBytes, buildObjs, buildBytes, freshBytes)

	if n < 5000 {
		t.Fatalf("the tap kept %d delay samples — budget measured a thinned clip", n)
	}
	if jobBytes >= buildBytes+samples {
		t.Errorf("a warm QBone job allocates %d B, %d B above its build; want under the %d B of its samples",
			jobBytes, jobBytes-buildBytes, samples)
	}
	if freshBytes < jobBytes+samples {
		t.Errorf("the job allocates %d B on a fresh Scratch and %d B on a warm one — lending saved less than its %d B of samples, so the budget proves nothing",
			freshBytes, jobBytes, samples)
	}
}

// TestDelayTapEmptyAfterJobBoundary pins Scratch.Reset's side of the
// loan: a delay tap read after its job's boundary has no samples, not
// those of the job that now fills its array, and a tap on lent storage
// reads exactly what a tap that grew its own reads.
func TestDelayTapEmptyAfterJobBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	cfg := delayTapConfig()
	_, want := delayTapJob(&Ctx{}, cfg)
	worker := &Ctx{Sim: sim.New(0), Pool: packet.NewPool(), Recv: new(client.Scratch)}
	first, _ := delayTapJob(worker, cfg)
	second, got := delayTapJob(worker, cfg)
	if got != want {
		t.Errorf("a tap on lent storage reads %+v, one without a Scratch %+v", got, want)
	}
	for name, d := range map[string]*stats.DelayCollector{"first": first, "second": second} {
		if s := d.Delay.String(); !strings.HasPrefix(s, "n=0 ") || d.Delay.Mean() != 0 || d.Delay.Percentile(99) != 0 {
			t.Errorf("the %s job's tap, read after its boundary: %s; want no samples", name, s)
		}
	}
}

// TestStreamingJitterMeanIsSampleMean pins that the tap's jitter, which
// keeps a sum and a count, reports bit for bit the mean a sample-keeping
// series reports — the samples' sum in arrival order over their count —
// on a seeded random arrival sequence.
func TestStreamingJitterMeanIsSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	clk := &manualClock{}
	d := &stats.DelayCollector{Clock: clk}
	var samples []float64
	var prevAt, prevGap units.Time
	for i := 0; i < 20000; i++ {
		at := clk.now + units.Time(rng.Int63n(int64(20*units.Millisecond)))
		clk.now = at
		d.Handle(&packet.Packet{ID: uint64(i + 1), SentAt: at - units.Millisecond})
		if i >= 1 {
			gap := at - prevAt
			if i >= 2 {
				samples = append(samples, math.Abs((gap - prevGap).Seconds()))
			}
			prevGap = gap
		}
		prevAt = at
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	want := sum / float64(len(samples))
	if got := d.Jitter.Mean(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("streaming jitter mean %v (bits %x), sample mean %v (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// manualClock is a clock the test sets by hand.
type manualClock struct{ now units.Time }

func (c *manualClock) Now() units.Time { return c.now }

package ptrace_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/units"
)

// TestAnalyzeStreamMatchesAnalyze pins that the streaming analysis is
// the analysis of the materialised capture: AnalyzeStream over the v2
// bytes equals a digester fed the events Read decodes, on the real
// tandem capture.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	seed := tandemSeed()
	d, err := ptrace.Read(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	want := ptrace.DigestEvents(d.Events, units.Second, d.Hops, d.Seen)

	got, info, err := ptrace.AnalyzeStream(bytes.NewReader(seed), units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != uint64(len(d.Events)) || info.Seen != d.Seen || info.Hops != len(d.Hops) {
		t.Errorf("info %+v, want events=%d seen=%d hops=%d", info, len(d.Events), d.Seen, len(d.Hops))
	}
	if got.Format() != want.Format() {
		t.Errorf("streaming and materialised summaries differ:\n--- stream\n%s\n--- materialised\n%s",
			got.Format(), want.Format())
	}
}

// TestDigestQuantileTolerance bounds the P² sketch percentiles against
// exact sort-based order statistics on reference delay distributions —
// the accuracy contract that replaced held-in-RAM exact percentiles.
func TestDigestQuantileTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	dists := []struct {
		name string
		gen  func() float64
		tol  float64 // relative error bound at p50/p90/p99
	}{
		{"uniform", func() float64 { return rng.Float64() * 1e7 }, 0.02},
		{"exponential", func() float64 { return rng.ExpFloat64() * 2e6 }, 0.03},
		// The upper mode holds 25% of the mass so every measured
		// quantile sits inside a mode: P² interpolates across density
		// gaps, so a quantile landing exactly on the inter-mode jump is
		// the sketch's known weak spot and not part of its contract.
		{"bimodal", func() float64 {
			if rng.Intn(4) == 0 {
				return 5e7 + rng.Float64()*1e6 // queue-buildup mode
			}
			return 1e5 + rng.Float64()*1e5
		}, 0.05},
	}
	for _, dist := range dists {
		exact := make([]float64, n)
		evs := make([]ptrace.Event, n)
		for i := range evs {
			// Delay is integer nanoseconds, so the exact reference gets
			// the same truncated value the digest sees.
			v := units.Time(dist.gen())
			exact[i] = float64(v)
			evs[i] = ptrace.Event{Kind: ptrace.Deliver, Flow: 1, Delay: v}
		}
		sort.Float64s(exact)
		s := ptrace.DigestEvents(evs, units.Second, []string{"src"}, n)
		if len(s.Flows) != 1 {
			t.Fatalf("%s: %d flows, want 1", dist.name, len(s.Flows))
		}
		q := s.Flows[0].OneWay
		for _, p := range []struct {
			p   float64
			got units.Time
		}{{0.50, q.P50}, {0.90, q.P90}, {0.99, q.P99}} {
			want := exact[int(p.p*float64(n))]
			relErr := math.Abs(float64(p.got)-want) / want
			t.Logf("%s p%d: sketch %.0f exact %.0f (rel err %.4f)",
				dist.name, int(p.p*100), float64(p.got), want, relErr)
			if relErr > dist.tol {
				t.Errorf("%s p%d: sketch %.0f vs exact %.0f, rel err %.4f > %.3f",
					dist.name, int(p.p*100), float64(p.got), want, relErr, dist.tol)
			}
		}
		if got, want := float64(q.Max), math.Round(exact[n-1]); got != want {
			t.Errorf("%s: max %f, want exact %f", dist.name, got, want)
		}
		if q.N != n {
			t.Errorf("%s: N %d, want %d", dist.name, q.N, n)
		}
	}
}

// fleetTrace streams a synthetic fleet-scale v2 trace — flows flows,
// events total events round-robined across them over hops hops —
// straight into w without ever materializing an event slice.
func fleetTrace(w *bytes.Buffer, flows, events, hops int) error {
	rec := ptrace.NewRecorder(ptrace.Config{}) // a spilling recorder keeps no ring; the spill is the trace
	rec.SpillTo(w)
	names := make([]ptrace.HopID, hops)
	for i := range names {
		names[i] = rec.Hop("hop" + string(rune('a'+i)))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < events; i++ {
		flow := packet.FlowID(i%flows + 1)
		hop := names[i%hops]
		kind := ptrace.Deliver
		if i%13 == 0 {
			kind = ptrace.QueueDrop
		}
		rec.Emit(ptrace.Event{
			T: units.Time(i) * units.Microsecond, Kind: kind, Hop: hop, Flow: flow,
			PktID: uint64(i), Size: 1200, Delay: units.Time(rng.Intn(1e7)),
		})
	}
	return rec.FinishSpill()
}

// TestDigestMemoryBoundedByState pins the tentpole memory guarantee:
// digesting a fleet-scale trace (100k flows) costs memory proportional
// to the per-hop/per-flow state, not the trace length — tripling the
// event count over the same flows must not grow the digester's heap.
func TestDigestMemoryBoundedByState(t *testing.T) {
	const flows = 100000
	heapCost := func(events int) uint64 {
		var trace bytes.Buffer
		if err := fleetTrace(&trace, flows, events, 4); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, info, err := ptrace.AnalyzeStream(bytes.NewReader(trace.Bytes()), units.Second)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if info.Events != uint64(events) || len(s.Flows) != flows {
			t.Fatalf("digested %d events / %d flows, want %d / %d",
				info.Events, len(s.Flows), events, flows)
		}
		// Keep s live past the second ReadMemStats so the digest state is
		// actually in the "after" heap.
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}

	small := heapCost(1000000)
	large := heapCost(3000000)
	t.Logf("allocated digesting 1M events: %d MiB; 3M events: %d MiB",
		small>>20, large>>20)
	// Cumulative allocation is dominated by the O(flows) digest state
	// (rebuilt per call); the per-event streaming path must not add a
	// per-event term, so 3× the events may cost at most ~1.25× the
	// allocation of 1×.
	if large > small+small/4 {
		t.Errorf("allocation grew with trace length: 1M events cost %d bytes, 3M cost %d", small, large)
	}
	// Absolute sanity: the state for 100k flows (several sketches each)
	// must stay well under materializing 3M 48-byte events would cost.
	if large > 100<<20 {
		t.Errorf("digesting 3M events allocated %d MiB, want << event-slice cost", large>>20)
	}
}

// TestTimelineSparseAtFineBuckets pins the verdict timeline at the
// finest bucket a flag reaches (dstrace -bucket 1ns): streaming the
// tandem capture gives the materialised analysis's timeline, and the
// timeline's memory follows the buckets hit, not the span they cover —
// the same verdicts spread a million times wider allocate the same.
func TestTimelineSparseAtFineBuckets(t *testing.T) {
	const oneNS units.Time = 1
	seed := tandemSeed()
	d, err := ptrace.Read(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	want := ptrace.DigestEvents(d.Events, oneNS, d.Hops, d.Seen)
	got, _, err := ptrace.AnalyzeStream(bytes.NewReader(seed), oneNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Timeline) == 0 || !reflect.DeepEqual(got.Timeline, want.Timeline) {
		t.Fatalf("1 ns timeline: streamed %d buckets, materialised %d, or they differ",
			len(got.Timeline), len(want.Timeline))
	}

	const verdicts = 20000
	cost := func(spacing units.Time) (uint64, int) {
		evs := make([]ptrace.Event, verdicts)
		for i := range evs {
			evs[i] = ptrace.Event{T: units.Time(i) * spacing, Kind: ptrace.PolicerPass}
		}
		var s *ptrace.Summary
		b := allocated(func() { s = ptrace.DigestEvents(evs, oneNS, []string{"border"}, verdicts) })
		return b, len(s.Timeline)
	}
	dense, denseN := cost(oneNS)
	sparse, sparseN := cost(units.Millisecond)
	t.Logf("%d one-verdict buckets over %d ns: %d B; over %d ns: %d B",
		verdicts, verdicts, dense, verdicts*int64(units.Millisecond), sparse)
	if denseN != verdicts || sparseN != verdicts {
		t.Fatalf("timelines hold %d and %d buckets, want %d each", denseN, sparseN, verdicts)
	}
	if sparse > dense+dense/10 {
		t.Errorf("a 10^6 times wider span allocated %d B against %d B: the timeline grows with its span", sparse, dense)
	}
	if perBucket := dense / verdicts; perBucket > 256 {
		t.Errorf("the timeline allocated %d B per bucket hit, want <= 256", perBucket)
	}
}

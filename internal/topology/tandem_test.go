package topology

import (
	"testing"

	"repro/internal/ptrace"
	"repro/internal/video"
)

func tandemConfig(second bool) TandemConfig {
	return TandemConfig{
		Seed: 7, Enc: video.CachedCBR(video.Lost(), 1.0e6),
		TokenRate: 1.1e6, Depth: 3000, SecondBorder: second,
	}
}

func TestTandemBaselineDelivers(t *testing.T) {
	t.Parallel()
	tn := BuildTandem(tandemConfig(false))
	if tn.Border2 != nil {
		t.Fatal("baseline built a second border")
	}
	tn.Run()
	if tn.Client.Packets == 0 {
		t.Fatal("client received nothing")
	}
	if tn.Border1.Passed == 0 {
		t.Fatal("border 1 passed nothing")
	}
}

func TestTandemSecondBorderReDrops(t *testing.T) {
	t.Parallel()
	tn := BuildTandem(tandemConfig(true))
	if tn.Border2 == nil {
		t.Fatal("second border missing")
	}
	tn.Run()
	b1, b2 := tn.Border1.LossFraction(), tn.Border2.LossFraction()
	// The whole point of the topology: traffic that conformed at
	// border 1 is re-clocked by domain 1's queues and re-dropped at
	// border 2 against the identical profile.
	if b2 <= 0 {
		t.Errorf("border 2 dropped nothing (b1=%.4f) — no burst accumulation visible", b1)
	}
	if tn.Border2.Passed+tn.Border2.Dropped != tn.Border1.Passed {
		t.Errorf("border 2 saw %d packets, border 1 passed %d",
			tn.Border2.Passed+tn.Border2.Dropped, tn.Border1.Passed)
	}
}

func TestTandemTraceCapturesBothBorders(t *testing.T) {
	t.Parallel()
	// Bulk forwarding events would overrun any bounded ring over a
	// whole run; the verdict mask keeps every conditioner decision
	// and delivery instead.
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 17, Kinds: ptrace.VerdictKinds()})
	cfg := tandemConfig(true)
	cfg.Trace = rec
	tn := BuildTandem(cfg)
	tn.Run()
	if rec.Seen() == 0 {
		t.Fatal("recorder saw nothing")
	}
	counts := map[string]map[ptrace.Kind]int{}
	for _, e := range rec.Data().Events {
		m := counts[rec.HopName(e.Hop)]
		if m == nil {
			m = map[ptrace.Kind]int{}
			counts[rec.HopName(e.Hop)] = m
		}
		m[e.Kind]++
	}
	for _, border := range []string{"border1", "border2"} {
		if counts[border][ptrace.PolicerPass] == 0 {
			t.Errorf("%s recorded no pass verdicts", border)
		}
	}
	if counts["border2"][ptrace.PolicerDrop] == 0 {
		t.Error("border2 recorded no drops in the trace")
	}
	if counts["client"][ptrace.Deliver] == 0 {
		t.Error("client recorded no deliveries")
	}
	// Delivery events must carry a positive one-way delay.
	for _, e := range rec.Data().Events {
		if e.Kind == ptrace.Deliver && e.Delay <= 0 {
			t.Fatalf("delivery with non-positive delay: %+v", e)
		}
	}
}

// TestTandemTraceDoesNotPerturb pins the observation-only contract:
// the same seed with and without a recorder produces the identical
// simulation (event count, client packets, border verdicts).
func TestTandemTraceDoesNotPerturb(t *testing.T) {
	t.Parallel()
	plain := BuildTandem(tandemConfig(true))
	plain.Run()

	cfg := tandemConfig(true)
	cfg.Trace = ptrace.NewRecorder(ptrace.Config{Capacity: 1024, Sample: 8})
	traced := BuildTandem(cfg)
	traced.Run()

	if plain.Sim.Fired() != traced.Sim.Fired() {
		t.Errorf("event counts diverge: %d vs %d", plain.Sim.Fired(), traced.Sim.Fired())
	}
	if plain.Client.Packets != traced.Client.Packets {
		t.Errorf("client packets diverge: %d vs %d", plain.Client.Packets, traced.Client.Packets)
	}
	if plain.Border1.Dropped != traced.Border1.Dropped ||
		plain.Border2.Dropped != traced.Border2.Dropped {
		t.Errorf("border drops diverge: %d/%d vs %d/%d",
			plain.Border1.Dropped, plain.Border2.Dropped,
			traced.Border1.Dropped, traced.Border2.Dropped)
	}
}

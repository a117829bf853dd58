package topology

import (
	"testing"

	"repro/internal/units"
	"repro/internal/video"
)

func TestAFBuildsAndRuns(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	a := BuildAF(AFConfig{Seed: 1, Enc: enc, CIR: 1.2e6})
	a.Run()
	if a.Marker.Green == 0 {
		t.Fatal("marker saw no traffic")
	}
	tr := a.Client.Trace()
	if tr.FrameLossFraction() > 0.02 {
		t.Errorf("frame loss %v with adequate CIR and default load", tr.FrameLossFraction())
	}
}

func TestAFColoringMonotoneInCIR(t *testing.T) {
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	reds := func(cir units.BitRate) int {
		a := BuildAF(AFConfig{Seed: 1, Enc: enc, CIR: cir})
		a.Run()
		return a.Marker.Red
	}
	small, big := reds(0.5e6), reds(1.5e6)
	if small <= big {
		t.Errorf("red count not decreasing in CIR: %d vs %d", small, big)
	}
}

func TestAFNeverDropsAtEdge(t *testing.T) {
	// AF conditioning marks; it must not drop. Every packet the server
	// sent reaches the marker and leaves it with exactly one color, even
	// when heavily red-marked; losses happen only inside the network.
	enc := video.EncodeCBR(video.Lost(), 1.0e6)
	a := BuildAF(AFConfig{Seed: 3, Enc: enc, CIR: 0.4e6})
	a.Run()
	if a.Marker.Red == 0 {
		t.Fatal("expected heavy red marking at CIR 0.4M")
	}
	if colored := a.Marker.Green + a.Marker.Yellow + a.Marker.Red; colored != a.Server.Sent {
		t.Errorf("marker colored %d packets, server sent %d", colored, a.Server.Sent)
	}
}

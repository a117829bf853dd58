package experiment

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/client"
	"repro/internal/render"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/video"
	"repro/internal/vqm"
)

// TestOfflinePipelineViaTraceFile exercises the paper's actual
// workflow end to end: run a streaming experiment, serialize the frame
// timing trace to the ASCII format (the instrumented client's output
// file), read it back, and score it offline. The score must be
// identical to scoring the in-memory trace.
func TestOfflinePipelineViaTraceFile(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.5e6)
	q := topology.BuildQBone(topology.QBoneConfig{
		Seed: DefaultSeed, Enc: enc, TokenRate: 1.55e6, Depth: 3000,
	})
	q.Client.Tolerance = client.SliceTolerance
	q.Run()
	orig := q.Client.Trace()

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	score := func(tr *trace.Trace) float64 {
		dec := client.DecodeMPEG(tr, enc)
		d := render.Conceal(dec)
		return vqm.Score(d, enc, enc).Index
	}
	a, b := score(orig), score(loaded)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("offline score %v != online score %v", b, a)
	}
	if a == 0 {
		t.Error("expected a non-trivial score at a tight profile")
	}
}

// TestSeedRobustness verifies the headline depth comparison holds
// across seeds, not just the published one — the reproduction's
// equivalent of the paper repeating runs.
func TestSeedRobustness(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full simulation")
	}
	enc := video.EncodeCBR(video.Lost(), 1.7e6)
	wins := 0
	const seeds = 4
	for s := uint64(0); s < seeds; s++ {
		p3 := qbonePoint(enc, enc, 1.75e6, 3000, 100+s, 0, 1)
		p45 := qbonePoint(enc, enc, 1.75e6, 4500, 100+s, 0, 1)
		if p45.Quality < p3.Quality {
			wins++
		}
	}
	if wins < seeds-1 {
		t.Errorf("B=4500 beat B=3000 in only %d of %d seeds", wins, seeds)
	}
}

package experiment_test

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/render"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

// Example streams one clip across the simulated QBone behind an EF
// policer and measures the perceived quality: the paper's core
// experiment, from server to VQM score.
func Example() {
	// 1. Content: the "Lost" trailer, MPEG-1 CBR at 1.7 Mbps.
	clip := video.Lost()
	enc := video.EncodeCBR(clip, 1.7*units.Mbps)
	fmt.Printf("clip %s: %d frames, %.2f s\n", clip.Name, clip.FrameCount(), clip.DurationSeconds())

	// 2. Network: the wide-area testbed with an EF profile of
	//    1.8 Mbps / 3000 bytes, dropping out-of-profile packets.
	q := topology.BuildQBone(topology.QBoneConfig{
		Seed:      experiment.DefaultSeed,
		Enc:       enc,
		TokenRate: 1.8 * units.Mbps,
		Depth:     3000,
	})
	q.Client.Tolerance = client.SliceTolerance

	// 3. Stream the whole clip.
	q.Run()
	fmt.Printf("policer: %d passed, %d dropped\n", q.Policer.Passed, q.Policer.Dropped)

	// 4. The offline pipeline of §3.1: decode dependencies, renderer
	//    concealment, VQM scoring.
	tr := client.DecodeMPEG(q.Client.Trace(), enc)
	displayed := render.Conceal(tr, render.DefaultOptions())
	result := vqm.ScoreSame(displayed, enc, vqm.Options{})
	fmt.Printf("frame loss: %.2f%%\n", 100*tr.FrameLossFraction())
	fmt.Printf("freezes: %d slots (longest %d)\n", displayed.Repeats, displayed.LongestFreeze())
	fmt.Printf("VQM quality index: %.3f (0 = perfect, 1 = worst)\n", result.Index)

	// Output:
	// clip Lost: 2150 frames, 71.74 s
	// policer: 10615 passed, 602 dropped
	// frame loss: 2.37%
	// freezes: 51 slots (longest 12)
	// VQM quality index: 0.302 (0 = perfect, 1 = worst)
}

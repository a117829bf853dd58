package experiment

import (
	"fmt"
	"strings"

	"repro/internal/units"
	"repro/internal/video"
)

// DefaultSeed is the seed every published figure uses; change it to
// check robustness of the shapes to the random stream.
const DefaultSeed uint64 = 2001

// The figure scenarios register here so commands can enumerate and
// run them by name (dsbench -scenario fig7 -parallel 8). Clip models
// are rebuilt per spec constructor, so registration costs no
// simulation work — encodings happen lazily via the cache on first
// Jobs() call.
func init() {
	Register(Figure7Spec())
	Register(Figure8Spec())
	Register(Figure9Spec())
	Register(Figure10Spec())
	Register(Figure11Spec())
	Register(Figure12Spec())
	Register(Figure13Spec())
	Register(Figure14Spec())
	Register(Figure15Spec())
	Register(Figure16Spec())
}

// StandardDepths are the two APS burst sizes of the QBone experiments.
func StandardDepths() []units.ByteSize { return []units.ByteSize{3000, 4500} }

// Scale thins a sweep — token rates, flow counts, loads — for quick
// runs: keep every n-th point, always keeping the endpoints. A last
// point equal to the last kept one is not repeated.
func Scale[T comparable](xs []T, n int) []T {
	if n <= 1 || len(xs) <= 2 {
		return xs
	}
	var out []T
	for i := 0; i < len(xs); i += n {
		out = append(out, xs[i])
	}
	if out[len(out)-1] != xs[len(xs)-1] {
		out = append(out, xs[len(xs)-1])
	}
	return out
}

// Figure7Spec is "QBone Streaming (Lost clip/1.7Mbps encoding): Video
// Quality & Frame Loss vs Token Rate".
func Figure7Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig7", ID: "Figure 7", Title: "QBone, Lost clip @ 1.7 Mbps: quality & frame loss vs token rate",
		Clip: video.Lost(), EncRate: 1.7e6,
		Tokens: TokenSweep(1200, 2200, 100), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure8Spec is the 1.5 Mbps Lost variant.
func Figure8Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig8", ID: "Figure 8", Title: "QBone, Lost clip @ 1.5 Mbps: quality & frame loss vs token rate",
		Clip: video.Lost(), EncRate: 1.5e6,
		Tokens: TokenSweep(1200, 2200, 100), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure9Spec is the 1.0 Mbps Lost variant.
func Figure9Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig9", ID: "Figure 9", Title: "QBone, Lost clip @ 1.0 Mbps: quality & frame loss vs token rate",
		Clip: video.Lost(), EncRate: 1.0e6,
		Tokens: TokenSweep(700, 1100, 50), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure10Spec is the 1.7 Mbps Dark variant.
func Figure10Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig10", ID: "Figure 10", Title: "QBone, Dark clip @ 1.7 Mbps: quality & frame loss vs token rate",
		Clip: video.Dark(), EncRate: 1.7e6,
		Tokens: TokenSweep(1200, 2200, 100), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure11Spec is the 1.5 Mbps Dark variant.
func Figure11Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig11", ID: "Figure 11", Title: "QBone, Dark clip @ 1.5 Mbps: quality & frame loss vs token rate",
		Clip: video.Dark(), EncRate: 1.5e6,
		Tokens: TokenSweep(1200, 2200, 100), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure12Spec is the 1.0 Mbps Dark variant.
func Figure12Spec() QBoneSpec {
	return QBoneSpec{
		Key: "fig12", ID: "Figure 12", Title: "QBone, Dark clip @ 1.0 Mbps: quality & frame loss vs token rate",
		Clip: video.Dark(), EncRate: 1.0e6,
		Tokens: TokenSweep(700, 1100, 50), Depths: StandardDepths(), Seed: DefaultSeed,
	}
}

// Figure13Spec is "Frame Loss and Relative (compared to 1.7Mbps
// version) Quality for Dark Clip".
func Figure13Spec() RelativeSpec {
	return RelativeSpec{
		Key: "fig13", ID: "Figure 13", Title: "Dark clip: relative quality vs 1.7 Mbps reference, B=3000",
		Clip:     video.Dark(),
		EncRates: []units.BitRate{1.5e6, 1.0e6, 1.7e6},
		RefRate:  1.7e6,
		Tokens:   TokenSweep(600, 2100, 150),
		Depth:    3000, Seed: DefaultSeed,
	}
}

// Figure14Spec is the Lost-clip variant of Figure 13.
func Figure14Spec() RelativeSpec {
	return RelativeSpec{
		Key: "fig14", ID: "Figure 14", Title: "Lost clip: relative quality vs 1.7 Mbps reference, B=3000",
		Clip:     video.Lost(),
		EncRates: []units.BitRate{1.5e6, 1.0e6, 1.7e6},
		RefRate:  1.7e6,
		Tokens:   TokenSweep(600, 2100, 150),
		Depth:    3000, Seed: DefaultSeed,
	}
}

// Figure15Spec is "Local Testbed Experiments (Lost clip at 1Mbps) –
// Quality and Frame Loss vs Token Rate" with hard policing only.
func Figure15Spec() LocalSpec {
	return LocalSpec{
		Key: "fig15", ID: "Figure 15", Title: "Local testbed, WMV Lost @ ~1 Mbps cap, drop policing",
		Clip: video.Lost(), CapKbps: video.WMVCapKbps,
		Tokens: TokenSweep(500, 2500, 200), Depths: StandardDepths(),
		UseShaper: false, UseTCP: false, Seed: DefaultSeed,
	}
}

// Figure16Spec is the Figure 15 configuration with the Linux shaping
// router inserted ahead of the policer.
func Figure16Spec() LocalSpec {
	return LocalSpec{
		Key: "fig16", ID: "Figure 16", Title: "Local testbed, WMV Lost @ ~1 Mbps cap, shaper + drop policing",
		Clip: video.Lost(), CapKbps: video.WMVCapKbps,
		Tokens: TokenSweep(500, 2500, 200), Depths: StandardDepths(),
		UseShaper: true, UseTCP: false, Seed: DefaultSeed,
	}
}

// Figure6 renders the instantaneous transmission-rate traces of the
// MPEG encodings (sampled every `every` frames to keep output small).
func Figure6(c *video.Clip, every int) string {
	if every <= 0 {
		every = 31 // coprime with the GoP so samples cycle I/P/B slots
	}
	rates := []units.BitRate{1.7e6, 1.5e6, 1.0e6}
	encs := make([]*video.Encoding, len(rates))
	for i, r := range rates {
		encs[i] = video.EncodeCBR(c, r)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %s clip transmitted bit rates (bps), every %d frames\n", c.Name, every)
	fmt.Fprintf(&b, "%-8s %-12s %-12s %-12s\n", "Frame", "1.7M", "1.5M", "1M")
	for i := 0; i < c.FrameCount(); i += every {
		fmt.Fprintf(&b, "%-8d %-12.0f %-12.0f %-12.0f\n",
			i+1, encs[0].FrameRate(i), encs[1].FrameRate(i), encs[2].FrameRate(i))
	}
	return b.String()
}

// Table4 renders the experimental-configuration summary.
func Table4() string {
	rows := [][3]string{
		{"", "QBone", "Local Testbed"},
		{"Video server", "Video Charger (paced)", "Windows Media Server"},
		{"Network protocol", "UDP", "TCP, UDP"},
		{"Contents type", "MPEG-1", "WMV format"},
		{"Contents properties", "Constant bit rate", "Max bit rate is constant"},
		{"PHB tested", "EF", "EF"},
		{"Service parameters", "Token rate, bucket depth", "Token rate, bucket depth"},
		{"Out-of-profile action", "Drop", "Drop (router 1) / Shape (Linux router)"},
	}
	var b strings.Builder
	b.WriteString("Table 4 — Summary of experimental configurations\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s | %-26s | %s\n", r[0], r[1], r[2])
	}
	return b.String()
}

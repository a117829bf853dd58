// Package video models the content side of the experiments: the two
// movie-trailer clips ("Lost", 2150 frames / 71.74 s, and "Dark",
// 4219 frames / 140.77 s, both 320x240 at NTSC 29.97 fps), and the two
// encoders used in the paper — an MPEG-1-style constant-bit-rate
// encoder with an IBBPBB GoP structure, and a Windows-Media-style
// capped-VBR encoder.
//
// The original pixel data is unavailable (and irrelevant: both the
// policer interaction and the VQM quality model are driven entirely by
// per-frame sizes and per-frame feature streams). Each clip is
// therefore a deterministic synthetic content model: a sequence of
// scenes, each with a motion level, a spatial-detail level and a color
// signature, from which per-frame temporal information (TI), spatial
// information (SI) and color features are derived. "Dark" carries the
// high-motion scenes near its end that the paper points out in Fig. 6.
package video

import (
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// NTSC frame rate: 30000/1001 ≈ 29.97 fps. The paper's frame counts
// and durations (2150/71.74 s, 4219/140.77 s) are consistent with this
// rate, not with exactly 30 fps.
const (
	FPSNum = 30000
	FPSDen = 1001
)

// fps is the frame rate as a float.
const fps = float64(FPSNum) / float64(FPSDen)

// FrameInterval is the simulated time between frames.
func FrameInterval() units.Time {
	return units.Time(int64(FPSDen) * int64(units.Second) / int64(FPSNum))
}

// Scene is a contiguous run of frames sharing content statistics.
type Scene struct {
	Frames int     // length in frames
	Motion float64 // temporal activity in [0,1]
	Detail float64 // spatial detail in [0,1]
	Color  float64 // dominant chroma signature in [0,1]
}

// Clip is a content model: scene structure expanded to per-frame
// feature streams.
type Clip struct {
	Name   string
	Scenes []Scene

	// Per-frame feature streams, all len == FrameCount.
	TI    []float64 // temporal information (motion energy vs previous frame)
	SI    []float64 // spatial information (detail)
	Color []float64 // chroma signature

	// Complexity is the encoder-facing coding difficulty per frame.
	Complexity []float64
}

// FrameCount reports the number of frames.
func (c *Clip) FrameCount() int { return len(c.TI) }

// DurationSeconds reports the playback duration.
func (c *Clip) DurationSeconds() float64 { return float64(c.FrameCount()) / fps }

// build expands scenes into feature streams using a deterministic RNG.
func (c *Clip) build(seed uint64) {
	n := 0
	for _, s := range c.Scenes {
		n += s.Frames
	}
	c.TI = make([]float64, n)
	c.SI = make([]float64, n)
	c.Color = make([]float64, n)
	c.Complexity = make([]float64, n)
	rng := sim.NewRNG(seed)
	i := 0
	for si, s := range c.Scenes {
		for f := 0; f < s.Frames; f++ {
			// Slow within-scene modulation plus frame noise.
			phase := float64(f) / math.Max(1, float64(s.Frames))
			wobble := 0.25 * math.Sin(2*math.Pi*(phase*3+rng.Float64()*0.02))
			ti := s.Motion * (1 + wobble + 0.15*rng.Norm())
			siF := s.Detail * (1 + 0.08*rng.Norm())
			if f == 0 && si > 0 {
				// A scene cut is a large temporal discontinuity.
				ti = math.Max(ti, 0.85+0.1*rng.Float64())
			}
			if rng.Float64() < 0.004 {
				// Occasional fade/black frame: near-zero complexity,
				// the source of the tiny minimum frame sizes Table 2
				// reports.
				ti, siF = 0.02, 0.03
			}
			c.TI[i] = units.Clamp(ti, 0.01, 1.2)
			c.SI[i] = units.Clamp(siF, 0.02, 1.2)
			c.Color[i] = units.Clamp(s.Color+0.05*rng.Norm(), 0, 1)
			c.Complexity[i] = units.Clamp(0.55*c.TI[i]+0.45*c.SI[i], 0.02, 1.2)
			i++
		}
	}
}

// sceneSplit deterministically partitions total frames into scenes of
// 2–8 seconds, assigning motion/detail levels from the supplied
// profile function (which receives the scene's position in [0,1]).
func sceneSplit(total int, seed uint64, profile func(pos float64, rng *sim.RNG) Scene) []Scene {
	rng := sim.NewRNG(seed)
	var scenes []Scene
	used := 0
	for used < total {
		dur := int((2 + 6*rng.Float64()) * fps)
		const minScene = 2 * FPSNum / FPSDen // ≈ 2 s in frames
		if total-used < dur || total-used-dur < minScene {
			dur = total - used
		}
		s := profile(float64(used)/float64(total), rng)
		s.Frames = dur
		scenes = append(scenes, s)
		used += dur
	}
	return scenes
}

// Lost returns the model of the "Lost" trailer: 2150 frames, 71.74 s,
// moderate and fairly uniform motion (its Fig. 6 trace fluctuates but
// without the late-clip surge "Dark" shows).
func Lost() *Clip {
	c := &Clip{Name: "Lost"}
	c.Scenes = sceneSplit(2150, 0x105714C057, func(pos float64, rng *sim.RNG) Scene {
		return Scene{
			Motion: units.Clamp(0.35+0.25*rng.Float64(), 0, 1),
			Detail: units.Clamp(0.45+0.25*rng.Float64(), 0, 1),
			Color:  rng.Float64(),
		}
	})
	c.build(0x105714C057 ^ 0xBEEF)
	return c
}

// Dark returns the model of the "Dark" trailer: 4219 frames, 140.77 s,
// with high-motion content concentrated toward the end of the clip
// ("especially towards the end", §3.3.1 / Fig. 6).
func Dark() *Clip {
	c := &Clip{Name: "Dark"}
	c.Scenes = sceneSplit(4219, 0xDA2C0FFEE, func(pos float64, rng *sim.RNG) Scene {
		motion := 0.26 + 0.20*rng.Float64()
		if pos > 0.62 {
			// Action-heavy finale: bursts of very high motion.
			motion = 0.55 + 0.4*rng.Float64()
		}
		return Scene{
			Motion: units.Clamp(motion, 0, 1),
			// Dark scenes carry less spatial detail, which is why the
			// WMV encoder averages lower on Dark than on Lost even
			// though Dark has the high-motion finale (Table 3).
			Detail: units.Clamp(0.28+0.22*rng.Float64(), 0, 1),
			Color:  rng.Float64(),
		}
	})
	c.build(0xDA2C0FFEE ^ 0xBEEF)
	return c
}

// ByName returns a built-in clip model.
func ByName(name string) *Clip {
	switch name {
	case "Lost", "lost":
		return Lost()
	case "Dark", "dark":
		return Dark()
	default:
		return nil
	}
}

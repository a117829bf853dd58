package video

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// FrameType is the MPEG picture type.
type FrameType uint8

// MPEG picture types.
const (
	IFrame FrameType = iota
	PFrame
	bFrame
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	default:
		return "B"
	}
}

// EncodedFrame is one coded picture.
type EncodedFrame struct {
	Type FrameType
	Size int // bytes
	// Distortion is the coding-quality penalty of this frame on the
	// VQM 0..1 scale: roughly how far from transparent the encoding
	// is, given the bits spent versus the frame's complexity. It is
	// what makes a 1.0 Mbps encoding score worse than the 1.7 Mbps
	// original even over a perfect network (Figs. 13–14).
	Distortion float64
}

// Encoding is a clip coded at a particular rate.
type Encoding struct {
	Clip   *Clip
	Name   string
	Target units.BitRate // CBR target, or VBR cap
	CBR    bool
	Frames []EncodedFrame
}

// GoP structure used by the CBR encoder: N=12, M=3 (IBBPBBPBBPBB),
// the classic MPEG-1 pattern.
const (
	gopSize    = 12
	gopPattern = "IBBPBBPBBPBB"
)

func frameTypeAt(i int) FrameType {
	switch gopPattern[i%gopSize] {
	case 'I':
		return IFrame
	case 'P':
		return PFrame
	default:
		return bFrame
	}
}

// Relative bit allocation per picture type before rate control. The
// I-frame weight is deliberately modest and the per-frame cap tight:
// Table 2's max/avg per-frame rate ratio is only ≈1.20, i.e. the
// original encoder ran a small VBV that clipped I frames hard.
const (
	weightI = 1.55
	weightP = 0.85
	weightB = 0.62

	frameCapRatio   = 1.205 // max frame size as a multiple of the mean
	frameFloorRatio = 0.072 // min frame size as a multiple of the mean
)

// distortion models the coding penalty for spending `size` bytes on a
// frame of the given complexity. transparentBytes is the per-frame
// budget at which coding artifacts become invisible for complexity 1.
const transparentBytes = 10500.0

func distortion(complexity float64, size int) float64 {
	if size <= 0 {
		return 1
	}
	need := complexity * transparentBytes
	r := need / float64(size)
	if r <= 0.72 {
		return 0.002 * r
	}
	// MOS-style curve: artifacts appear quickly once the budget drops
	// below what the content needs, then saturate — starved frames
	// can't look much worse than "bad". Calibrated so that, against
	// the 1.7 Mbps reference, the 1.5 Mbps encoding plateaus near
	// 0.06–0.09 and the 1.0 Mbps encoding near 0.13–0.17 (Figs. 13–14).
	return units.Clamp(0.29*math.Tanh(3.2*(r-0.72)), 0, 0.9)
}

// EncodeCBR codes the clip at a constant bit rate with per-GoP rate
// control, mimicking the MPEG-1 encodings of §3.3.1. The carry term
// keeps the long-run rate exact; the per-frame cap and floor bound
// instantaneous excursions the way Table 2 reports.
func EncodeCBR(c *Clip, rate units.BitRate) *Encoding {
	n := c.FrameCount()
	e := &Encoding{
		Clip: c, Name: fmt.Sprintf("%s/CBR-%s", c.Name, rate),
		Target: rate, CBR: true,
		Frames: make([]EncodedFrame, n),
	}
	avgB := float64(rate) / 8 / fps
	capB := avgB * frameCapRatio
	floorB := avgB * frameFloorRatio
	rng := sim.NewRNG(uint64(rate) ^ 0xC0DEC)
	carry := 0.0
	for g := 0; g < n; g += gopSize {
		end := g + gopSize
		if end > n {
			end = n
		}
		gl := end - g
		budget := float64(gl)*avgB + carry
		// Raw wishes.
		raw := make([]float64, gl)
		sum := 0.0
		for j := 0; j < gl; j++ {
			i := g + j
			var w float64
			switch frameTypeAt(j) {
			case IFrame:
				w = weightI
			case PFrame:
				w = weightP
			default:
				w = weightB
			}
			raw[j] = w * (0.06 + 1.22*c.Complexity[i]) * (1 + 0.06*rng.Norm())
			if raw[j] < 0.05 {
				raw[j] = 0.05
			}
			sum += raw[j]
		}
		scale := budget / sum
		spent := 0.0
		for j := 0; j < gl; j++ {
			i := g + j
			sz := units.Clamp(raw[j]*scale, floorB, capB)
			e.Frames[i] = EncodedFrame{
				Type:       frameTypeAt(j),
				Size:       int(sz),
				Distortion: distortion(c.Complexity[i], int(sz)),
			}
			spent += float64(e.Frames[i].Size)
		}
		carry = budget - spent
		// Bound the carry so a pathological scene cannot build an
		// unbounded credit (a real VBV would saturate the same way).
		carry = units.Clamp(carry, -4*avgB, 4*avgB)
	}
	return e
}

// EncodeVBR codes the clip the way the Windows Media encoder of §3.3.2
// does: the requested bandwidth is a *maximum*; actual sizes track
// content complexity, so the average comes out well below the cap
// (Table 3: 1015.5 kbps requested, 771.7/680.5 kbps average).
func EncodeVBR(c *Clip, cap units.BitRate) *Encoding {
	n := c.FrameCount()
	e := &Encoding{
		Clip: c, Name: fmt.Sprintf("%s/VBR-%s", c.Name, cap),
		Target: cap, CBR: false,
		Frames: make([]EncodedFrame, n),
	}
	capB := float64(cap) / 8 / fps
	rng := sim.NewRNG(uint64(cap) ^ 0x3731)
	for i := 0; i < n; i++ {
		// Content-driven size, hard-capped at the requested bandwidth.
		want := capB * (0.18 + 1.05*c.Complexity[i]) * (1 + 0.10*rng.Norm())
		sz := units.Clamp(want, 0.05*capB, capB)
		e.Frames[i] = EncodedFrame{
			Type:       PFrame, // WMV: treat as a uniform predicted stream
			Size:       int(sz),
			Distortion: distortion(c.Complexity[i], int(sz)),
		}
	}
	return e
}

// totalBytes reports the coded size of the whole clip.
func (e *Encoding) totalBytes() int64 {
	var t int64
	for _, f := range e.Frames {
		t += int64(f.Size)
	}
	return t
}

// avgFrameSize reports the mean coded frame size in bytes.
func (e *Encoding) avgFrameSize() float64 {
	if len(e.Frames) == 0 {
		return 0
	}
	return float64(e.totalBytes()) / float64(len(e.Frames))
}

// FrameRate reports the instantaneous per-frame transmission rate in
// bits per second, the quantity MPEG_stat reports and Fig. 6 plots:
// frame bits × frame rate.
func (e *Encoding) FrameRate(i int) float64 {
	return float64(e.Frames[i].Size) * 8 * fps
}

// RateStats reports the (max, avg, min) of the per-frame rate trace,
// the three rate columns of Table 2.
func (e *Encoding) RateStats() (max, avg, min float64) {
	if len(e.Frames) == 0 {
		return 0, 0, 0
	}
	min = math.Inf(1)
	sum := 0.0
	for i := range e.Frames {
		r := e.FrameRate(i)
		sum += r
		if r > max {
			max = r
		}
		if r < min {
			min = r
		}
	}
	return max, sum / float64(len(e.Frames)), min
}

// Package vqm is the objective video quality measurement model — the
// stand-in for the ITS VQM tool (ANSI T1.801.03-1996) the paper used.
//
// Like the original, it is a reduced-reference method: it never looks
// at "pixels", only at per-frame feature streams (temporal information
// TI, spatial information SI, color) extracted from the reference clip
// and from the displayed output sequence, and it scores a clip by
//
//  1. segmenting the displayed stream into 300-frame (10 s) segments
//     whose first 100 frames overlap the previous segment (Fig. 3),
//  2. temporally calibrating each segment — searching an alignment
//     shift within the ±100-frame Alignment Uncertainty window by
//     maximizing the correlation of the TI feature histories; a segment
//     whose best correlation stays under 0.35 cannot be calibrated and
//     gets the worst quality index 1.0 (§3.1.3),
//  3. computing perception-based parameters (lost motion energy from
//     freezes, added motion from skips, spatial coding distortion) on
//     the frames following the alignment point, and
//  4. combining them into a composite index — 0 is perfect, 1 is the
//     worst the subjective-assessment calibration covers — and
//     averaging segment scores into the clip score.
package vqm

import (
	"math"
	"slices"

	"repro/internal/render"
	"repro/internal/units"
	"repro/internal/video"
)

// The tool's segmentation and calibration (Fig. 3, §3.1.3).
const (
	segmentFrames    = 300  // segment length (10 s)
	overlapFrames    = 100  // inter-segment overlap
	alignUncertainty = 100  // calibration search half-window
	calibThreshold   = 0.35 // min TI correlation to accept alignment
)

// Composite model weights, calibrated once against the behavioural
// targets vqm_test.go pins: a clean stream scores ≈0, a
// segment frozen half the time scores ≈0.8.
const (
	wLostMotion  = 1.30
	powLost      = 0.65
	wAddedMotion = 0.45
	wSpatial     = 1.00
	wDamage      = 2.50  // weight of concealed slice-loss damage
	wColor       = 0.60  // weight of chroma mismatch at aligned frames
	wResidual    = 0.002 // per frame of residual alignment error
)

// SegmentScore is the verdict on one 10-second segment.
type SegmentScore struct {
	StartSlot int
	Aligned   bool
	Shift     int // chosen alignment shift, in frames
	Index     float64
}

// Result is the tool's output for a clip.
type Result struct {
	Segments            []SegmentScore
	Index               float64 // mean of segment indices (the clip score)
	CalibrationFailures int
}

// featureStreams derives the output feature histories from a displayed
// sequence into outTI, which must have one element per slot. outTI[s]
// is the motion energy the viewer saw at slot s: zero during a freeze,
// the sum of the skipped frames' TI after a jump.
func featureStreams(d *render.Displayed, clip *video.Clip, outTI []float64) {
	prev := -1
	for s, f := range d.Frames {
		switch {
		case f < 0:
			outTI[s] = 0
		case prev < 0:
			outTI[s] = clip.TI[f]
		case f == prev:
			outTI[s] = 0
		case f > prev:
			sum := 0.0
			for k := prev + 1; k <= f && k < len(clip.TI); k++ {
				sum += clip.TI[k]
			}
			outTI[s] = sum
		default:
			outTI[s] = clip.TI[f]
		}
		prev = f
	}
}

// correlation computes the Pearson correlation of two equal-length
// vectors; degenerate (constant) inputs yield 0.
func correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var sa, sb float64
	for i := 0; i < n; i++ {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va <= 1e-12 || vb <= 1e-12 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func refTIAt(clip *video.Clip, i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= len(clip.TI) {
		i = len(clip.TI) - 1
	}
	return clip.TI[i]
}

// Scorer is Score with its scratch kept between calls — the output
// feature history, the calibration window and the result's segment
// list — for a caller that scores sequence after sequence. The zero
// value is ready to use.
type Scorer struct {
	outTI  []float64
	refVec []float64
	res    Result
}

// Score runs the tool on a displayed sequence.
//
// recv is the encoding that was actually streamed; ref is the encoding
// to score against. For the paper's first experiment set (Figs. 7–12)
// recv == ref: network impairments only. For the relative experiments
// (Figs. 13–14) ref is the 1.7 Mbps encoding, so coding distortion of
// the lower-rate stream contributes to the score.
func Score(d *render.Displayed, recv, ref *video.Encoding) *Result {
	return new(Scorer).Score(d, recv, ref)
}

// Score is the package-level Score on the scorer's scratch; the
// returned result is valid until the next call.
func (sc *Scorer) Score(d *render.Displayed, recv, ref *video.Encoding) *Result {
	clip := recv.Clip
	res := &sc.res
	*res = Result{Segments: res.Segments[:0]}
	if len(d.Frames) == 0 {
		// Nothing was ever displayed: total failure.
		res.Index = 1
		res.CalibrationFailures = 1
		res.Segments = append(res.Segments, SegmentScore{Aligned: false, Index: 1})
		return res
	}
	sc.outTI = slices.Grow(sc.outTI[:0], len(d.Frames))[:len(d.Frames)]
	featureStreams(d, clip, sc.outTI)
	sc.refVec = slices.Grow(sc.refVec[:0], overlapFrames)[:overlapFrames]

	step := segmentFrames - overlapFrames
	// Rolling anchor: each segment searches around where the previous
	// segment left off, which is how the sequential tool tracked the
	// cumulative playback shift introduced by stalls.
	anchor := 0
	for start := 0; start == 0 || start+overlapFrames <= len(d.Frames); start += step {
		segLen := segmentFrames
		if start+segLen > len(d.Frames) {
			segLen = len(d.Frames) - start
		}
		if segLen < overlapFrames/2 {
			break
		}
		seg := sc.scoreSegment(d, recv, ref, start, segLen, anchor)
		res.Segments = append(res.Segments, seg)
		if seg.Aligned {
			anchor = seg.Shift
		}
		if !seg.Aligned {
			res.CalibrationFailures++
		}
		if start+segLen >= len(d.Frames) {
			break
		}
	}
	sum := 0.0
	for _, s := range res.Segments {
		sum += s.Index
	}
	if len(res.Segments) > 0 {
		res.Index = sum / float64(len(res.Segments))
	} else {
		// Too little was ever displayed to score even one segment:
		// that is the worst outcome, not a perfect one.
		res.Index = 1
		res.CalibrationFailures++
	}
	return res
}

// scoreSegment calibrates and scores one segment. anchor is the
// playback shift (ref frame minus slot index) the previous segment
// established; sc.outTI holds d's feature history and sc.refVec
// overlapFrames elements of calibration scratch.
func (sc *Scorer) scoreSegment(d *render.Displayed, recv, ref *video.Encoding, start, segLen, anchor int) SegmentScore {
	clip, outTI := recv.Clip, sc.outTI
	best, bestShift := math.Inf(-1), 0
	// The tool aligns on the overlap region then scores the frames
	// that follow; use the first overlapFrames slots for calibration.
	calLen := overlapFrames
	if calLen > segLen {
		calLen = segLen
	}
	out := outTI[start : start+calLen]
	refVec := sc.refVec[:calLen]
	for delta := -alignUncertainty; delta <= alignUncertainty; delta++ {
		shift := anchor + delta
		for s := 0; s < calLen; s++ {
			refVec[s] = refTIAt(clip, start+s-shift)
		}
		c := correlation(out, refVec)
		if c > best {
			best = c
			bestShift = shift
		}
	}
	seg := SegmentScore{StartSlot: start, Shift: bestShift}
	if best < calibThreshold {
		// Temporal calibration failed: worst index, per §3.1.3.
		seg.Aligned = false
		seg.Index = 1
		return seg
	}
	seg.Aligned = true

	// Quality parameters over the frames following the alignment
	// region (the "next 100 frames" in the paper; use the remainder
	// of the segment for a denser estimate).
	lo := start + calLen
	hi := start + segLen
	if lo >= hi {
		lo = start
	}
	var refEnergy, lost, added, spatial, damage, color, residual float64
	n := 0
	prevDisp := -1
	if lo > 0 {
		prevDisp = d.Frames[lo-1]
	}
	for s := lo; s < hi; s++ {
		if s < len(d.Damage) {
			damage += d.Damage[s]
		}
		r := s - bestShift // aligned reference frame for this slot
		rt := refTIAt(clip, r)
		refEnergy += rt
		diff := rt - outTI[s]
		if diff > 0 {
			lost += diff
		} else {
			added += -diff
		}
		f := d.Frames[s]
		if f >= 0 && f < len(recv.Frames) {
			dr := recv.Frames[f].Distortion
			ri := r
			if ri < 0 {
				ri = 0
			}
			if ri >= len(ref.Frames) {
				ri = len(ref.Frames) - 1
			}
			ds := dr - ref.Frames[ri].Distortion
			if ds > 0 {
				spatial += ds
			}
			// Chroma comparison: showing the wrong content at an
			// aligned instant surfaces as a color-feature mismatch.
			cd := clip.Color[f] - clip.Color[ri]
			if cd < 0 {
				cd = -cd
			}
			color += cd
			if f != ri && f != prevDisp {
				// Residual misalignment: displayed content drifts
				// from where calibration put it.
				residual += math.Min(30, math.Abs(float64(f-ri)))
			}
		}
		prevDisp = f
	}
	if n = hi - lo; n == 0 {
		seg.Index = 1
		return seg
	}
	if refEnergy < 1e-9 {
		refEnergy = 1e-9
	}
	lostFrac := units.Clamp(lost/refEnergy, 0, 1)
	addedFrac := units.Clamp(added/refEnergy, 0, 2)
	idx := wLostMotion*math.Pow(lostFrac, powLost) +
		wAddedMotion*math.Min(1, addedFrac) +
		wSpatial*(spatial/float64(n)) +
		wDamage*(damage/float64(n)) +
		wColor*(color/float64(n)) +
		wResidual*(residual/float64(n))*30
	seg.Index = units.Clamp(idx, 0, 1)
	return seg
}

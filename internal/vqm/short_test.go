package vqm

import (
	"testing"

	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestNearTotalLossScoresWorst is the regression test for the
// zero-segments bug: a stream where only a handful of frames survive
// must score 1, not 0.
func TestNearTotalLossScoresWorst(t *testing.T) {
	enc := lostEnc()
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	// Three stray frames delivered out of 2150.
	for _, seq := range []int{10, 500, 1500} {
		tr.Add(trace.FrameRecord{
			Seq: seq, Arrival: units.Time(seq) * units.Millisecond,
			Presentation: units.Time(seq) * units.Millisecond, Frags: 1,
		})
	}
	d := render.Conceal(tr)
	res := Score(d, enc, enc)
	if res.Index < 0.9 {
		t.Errorf("near-total loss scored %v, want ≈1", res.Index)
	}
}

// TestSingleFrameDisplayScoresWorst covers the exact zero-segment path.
func TestSingleFrameDisplayScoresWorst(t *testing.T) {
	enc := lostEnc()
	tr := &trace.Trace{ClipFrames: enc.Clip.FrameCount()}
	tr.Add(trace.FrameRecord{Seq: 0, Frags: 1})
	d := render.Conceal(tr)
	res := Score(d, enc, enc)
	if res.Index != 1 {
		t.Errorf("single-frame display scored %v, want 1", res.Index)
	}
	if res.CalibrationFailures == 0 {
		t.Error("unmeasurable clip must count as a calibration failure")
	}
}

package vqm

import (
	"testing"

	"repro/internal/render"
)

func TestMOSMapping(t *testing.T) {
	cases := []struct {
		index float64
		want  float64
	}{
		{0, 5}, {0.25, 4}, {0.5, 3}, {1, 1},
	}
	for _, c := range cases {
		r := &Result{Index: c.index}
		if got := r.MOS(); got != c.want {
			t.Errorf("MOS(index=%v) = %v, want %v", c.index, got, c.want)
		}
	}
	// Out-of-range indices clamp.
	if (&Result{Index: 1.5}).MOS() != 1 {
		t.Error("MOS below 1 not clamped")
	}
}

func TestColorTermZeroWhenAligned(t *testing.T) {
	enc := lostEnc()
	d := render.Conceal(perfectTrace(enc.Clip.FrameCount()))
	res := Score(d, enc, enc)
	if res.Index > 0.02 {
		t.Errorf("aligned stream picked up color penalty: %v", res.Index)
	}
	if res.MOS() < 4.9 {
		t.Errorf("MOS = %v for a clean stream", res.MOS())
	}
}

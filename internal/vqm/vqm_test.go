package vqm

import (
	"testing"

	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

func perfectTrace(n int) *trace.Trace {
	tr := &trace.Trace{ClipFrames: n}
	iv := video.FrameInterval()
	for i := 0; i < n; i++ {
		at := units.Time(int64(i)) * iv
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 1})
	}
	return tr
}

func lostEnc() *video.Encoding { return video.EncodeCBR(video.Lost(), 1.7e6) }

func TestPerfectStreamScoresNearZero(t *testing.T) {
	enc := lostEnc()
	d := render.Conceal(perfectTrace(enc.Clip.FrameCount()))
	res := Score(d, enc, enc)
	if res.Index > 0.02 {
		t.Errorf("perfect stream index = %v, want ≈0", res.Index)
	}
	if res.CalibrationFailures != 0 {
		t.Errorf("calibration failures on perfect stream: %d", res.CalibrationFailures)
	}
}

func TestEmptyDisplayScoresWorst(t *testing.T) {
	enc := lostEnc()
	res := Score(&render.Displayed{}, enc, enc)
	if res.Index != 1 {
		t.Errorf("empty display index = %v, want 1", res.Index)
	}
}

func TestQualityMonotoneInBurstLoss(t *testing.T) {
	enc := lostEnc()
	n := enc.Clip.FrameCount()
	score := func(burst int) float64 {
		tr := perfectTrace(n)
		recs := tr.Records[:0]
		for _, r := range tr.Records {
			// Periodic bursts: drop `burst` frames every 300.
			if r.Seq%300 < burst {
				continue
			}
			recs = append(recs, r)
		}
		tr.Records = recs
		d := render.Conceal(tr)
		return Score(d, enc, enc).Index
	}
	s0, s5, s30, s120 := score(0), score(5), score(30), score(120)
	if !(s0 <= s5 && s5 < s30 && s30 < s120) {
		t.Errorf("not monotone: %v %v %v %v", s0, s5, s30, s120)
	}
	if s120 < 0.5 {
		t.Errorf("40%% loss scored too well: %v", s120)
	}
}

func TestLongFreezeFailsCalibration(t *testing.T) {
	enc := lostEnc()
	n := enc.Clip.FrameCount()
	tr := perfectTrace(n)
	// Drop a 12-second run of frames (longer than a segment): the
	// affected segments cannot calibrate and take index 1 (§3.1.3).
	recs := tr.Records[:0]
	for _, r := range tr.Records {
		if r.Seq >= 600 && r.Seq < 960 {
			continue
		}
		recs = append(recs, r)
	}
	tr.Records = recs
	d := render.Conceal(tr)
	res := Score(d, enc, enc)
	if res.CalibrationFailures == 0 {
		t.Error("12s outage did not break temporal calibration")
	}
	failed := false
	for _, s := range res.Segments {
		if !s.Aligned && s.Index == 1 {
			failed = true
		}
	}
	if !failed {
		t.Error("no segment carries the default index 1")
	}
}

func TestCalibrationRecoversAfterStall(t *testing.T) {
	enc := lostEnc()
	n := enc.Clip.FrameCount()
	// A mid-clip 4 s delivery stall shifts the playback timeline; the
	// rolling-anchor calibration must re-lock on later segments.
	tr := &trace.Trace{ClipFrames: n}
	iv := video.FrameInterval()
	for i := 0; i < n; i++ {
		at := units.Time(int64(i)) * iv
		arr := at
		if i >= 900 {
			arr += 4 * units.Second
		}
		tr.Add(trace.FrameRecord{Seq: i, Arrival: arr, Presentation: at, Frags: 1})
	}
	d := render.Conceal(tr)
	res := Score(d, enc, enc)
	if len(res.Segments) < 5 {
		t.Fatalf("segments = %d", len(res.Segments))
	}
	lastSeg := res.Segments[len(res.Segments)-1]
	if !lastSeg.Aligned {
		t.Error("calibration never recovered after the stall")
	}
	if lastSeg.Shift == 0 {
		t.Error("recovered segment should carry the accumulated shift")
	}
	if lastSeg.Index > 0.05 {
		t.Errorf("clean post-stall segment scored %v", lastSeg.Index)
	}
}

func TestCrossEncodingOffset(t *testing.T) {
	clip := video.Lost()
	ref := video.EncodeCBR(clip, 1.7e6)
	low := video.EncodeCBR(clip, 1.0e6)
	n := clip.FrameCount()
	d := render.Conceal(perfectTrace(n))
	same := Score(d, ref, ref).Index
	rel := Score(d, low, ref).Index
	if rel <= same+0.05 {
		t.Errorf("1.0M vs 1.7M reference scored %v, same-ref %v: no coding offset", rel, same)
	}
	if rel > 0.35 {
		t.Errorf("coding offset too large: %v", rel)
	}
}

func TestDamageRaisesScore(t *testing.T) {
	enc := lostEnc()
	n := enc.Clip.FrameCount()
	tr := perfectTrace(n)
	for i := range tr.Records {
		if i%3 == 0 {
			tr.Records[i].Frags = 5
			tr.Records[i].LostFrags = 1
		}
	}
	d := render.Conceal(tr)
	res := Score(d, enc, enc)
	if res.Index < 0.1 {
		t.Errorf("pervasive slice damage scored %v, want clearly > 0.1", res.Index)
	}
	if res.CalibrationFailures != 0 {
		t.Error("damage must not break calibration")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := correlation(a, a); c < 0.999 {
		t.Errorf("self correlation = %v", c)
	}
	b := []float64{4, 3, 2, 1}
	if c := correlation(a, b); c > -0.999 {
		t.Errorf("anti correlation = %v", c)
	}
	if c := correlation(a, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("constant correlation = %v", c)
	}
	if c := correlation(a, []float64{1, 2}); c != 0 {
		t.Errorf("length mismatch correlation = %v", c)
	}
}

func TestSegmentationCoversStream(t *testing.T) {
	enc := lostEnc()
	d := render.Conceal(perfectTrace(enc.Clip.FrameCount()))
	res := Score(d, enc, enc)
	// 2150 frames, stride 200: ≈10-11 segments.
	if len(res.Segments) < 9 || len(res.Segments) > 12 {
		t.Errorf("segments = %d for 2150 frames", len(res.Segments))
	}
	for i := 1; i < len(res.Segments); i++ {
		if res.Segments[i].StartSlot-res.Segments[i-1].StartSlot != 200 {
			t.Errorf("segment stride wrong at %d", i)
		}
	}
}

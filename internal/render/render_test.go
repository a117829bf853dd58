package render

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// perfectTrace builds a trace where every frame arrives exactly on its
// source schedule.
func perfectTrace(n int) *trace.Trace {
	tr := &trace.Trace{ClipFrames: n}
	iv := video.FrameInterval()
	for i := 0; i < n; i++ {
		at := units.Time(int64(i)) * iv
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 1})
	}
	return tr
}

func TestConcealPerfectPlayback(t *testing.T) {
	d := Conceal(perfectTrace(300))
	if d.Repeats != 0 {
		t.Errorf("repeats = %d on perfect trace", d.Repeats)
	}
	if len(d.Frames) != 300 {
		t.Errorf("slots = %d, want 300", len(d.Frames))
	}
	for i, f := range d.Frames {
		if f != i {
			t.Fatalf("slot %d shows frame %d", i, f)
		}
	}
}

func TestConcealEmptyTrace(t *testing.T) {
	d := Conceal(&trace.Trace{ClipFrames: 10})
	if len(d.Frames) != 0 || d.FreezeFraction() != 0 {
		t.Error("empty trace must produce empty output")
	}
}

func TestConcealIsolatedLossSingleRepeat(t *testing.T) {
	tr := perfectTrace(300)
	// Remove frame 100.
	recs := tr.Records[:0]
	for _, r := range tr.Records {
		if r.Seq != 100 {
			recs = append(recs, r)
		}
	}
	tr.Records = recs
	d := Conceal(tr)
	if d.Repeats != 1 {
		t.Errorf("repeats = %d, want 1 for an isolated loss", d.Repeats)
	}
	// Slot 100 must repeat frame 99; slot 101 shows 101 (back on time).
	if d.Frames[100] != 99 {
		t.Errorf("slot 100 shows %d, want repeat of 99", d.Frames[100])
	}
	if d.Frames[101] != 101 {
		t.Errorf("slot 101 shows %d, want 101", d.Frames[101])
	}
}

func TestConcealBurstLossFreeze(t *testing.T) {
	tr := perfectTrace(300)
	recs := tr.Records[:0]
	for _, r := range tr.Records {
		if r.Seq < 100 || r.Seq >= 130 {
			recs = append(recs, r)
		}
	}
	tr.Records = recs
	d := Conceal(tr)
	if d.Repeats != 30 {
		t.Errorf("repeats = %d, want 30", d.Repeats)
	}
	if d.LongestFreeze() != 30 {
		t.Errorf("longest freeze = %d, want 30", d.LongestFreeze())
	}
	for s := 100; s < 130; s++ {
		if d.Frames[s] != 99 {
			t.Fatalf("slot %d shows %d during freeze", s, d.Frames[s])
		}
	}
	if d.Frames[130] != 130 {
		t.Errorf("post-freeze slot shows %d", d.Frames[130])
	}
}

func TestConcealDeliveryStallShiftsTimeline(t *testing.T) {
	// All frames present, but frames ≥150 arrive 3 s late: the buffer
	// (2 s) drains and playback pauses ~1 s, then resumes shifted.
	tr := &trace.Trace{ClipFrames: 300}
	iv := video.FrameInterval()
	for i := 0; i < 300; i++ {
		at := units.Time(int64(i)) * iv
		arr := at
		if i >= 150 {
			arr += 3 * units.Second
		}
		tr.Add(trace.FrameRecord{Seq: i, Arrival: arr, Presentation: at, Frags: 1})
	}
	d := Conceal(tr)
	if d.Repeats == 0 {
		t.Fatal("stall produced no repeats")
	}
	// ~1 s worth of repeat slots (3 s late minus 2 s buffer).
	wantRepeats := int(units.Second / video.FrameInterval())
	if d.Repeats < wantRepeats-3 || d.Repeats > wantRepeats+3 {
		t.Errorf("repeats = %d, want ≈%d", d.Repeats, wantRepeats)
	}
	// Every source frame still gets displayed (pause, not skip).
	last := d.Frames[len(d.Frames)-1]
	if last != 299 {
		t.Errorf("last displayed frame = %d, want 299", last)
	}
	if len(d.Frames) != 300+d.Repeats {
		t.Errorf("slots = %d, want %d", len(d.Frames), 300+d.Repeats)
	}
}

func TestConcealDamagePropagates(t *testing.T) {
	tr := perfectTrace(10)
	tr.Records[4].Frags = 4
	tr.Records[4].LostFrags = 1
	d := Conceal(tr)
	if d.Damage[4] != 0.25 {
		t.Errorf("damage[4] = %v", d.Damage[4])
	}
	if d.Damage[3] != 0 || d.Damage[5] != 0 {
		t.Error("damage leaked to other slots")
	}
}

func TestFreezeFractionAndBookkeeping(t *testing.T) {
	tr := perfectTrace(100)
	recs := tr.Records[:0]
	for _, r := range tr.Records {
		if r.Seq != 10 && r.Seq != 50 && r.Seq != 51 {
			recs = append(recs, r)
		}
	}
	tr.Records = recs
	d := Conceal(tr)
	if d.Repeats != 3 {
		t.Fatalf("repeats = %d", d.Repeats)
	}
	if len(d.Freezes) != 2 {
		t.Fatalf("freeze runs = %d, want 2 (lengths %v)", len(d.Freezes), d.Freezes)
	}
	if got := d.FreezeFraction(); got <= 0 || got >= 0.1 {
		t.Errorf("FreezeFraction = %v", got)
	}
}

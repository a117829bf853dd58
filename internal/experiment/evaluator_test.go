package experiment

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/client"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// lossyTrace draws a received-frame trace over the first n frames of a
// clip: each frame lost with probability lossP, one survivor in 300
// late by more than the playout buffer (a freeze), one in 40 concealed.
func lossyTrace(rng *sim.RNG, n int, lossP float64) *trace.Trace {
	tr := &trace.Trace{ClipFrames: n}
	iv := video.FrameInterval()
	for i := 0; i < n; i++ {
		if rng.Float64() < lossP {
			continue
		}
		r := trace.FrameRecord{Seq: i, Presentation: units.Time(i) * iv, Frags: 3}
		r.Arrival = r.Presentation + units.Time(rng.Intn(20))*units.Millisecond
		if rng.Intn(300) == 0 {
			r.Arrival += 2*units.Second + units.Time(rng.Intn(2000))*units.Millisecond
		}
		if rng.Intn(40) == 0 {
			r.LostFrags = 1
		}
		tr.Add(r)
	}
	return tr
}

// TestEvaluatorReuseMatchesFresh: one Evaluator carried across 50
// unlike traces — long after short, clean after lossy, empty in
// between, MPEG-decoded and not, scored against itself and against a
// better encoding — must return what a fresh Evaluate returns, so
// stale scratch can never leak from one flow into the next.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	cbrLo := video.CachedCBR(video.Lost(), 1.0e6)
	cbrHi := video.CachedCBR(video.Lost(), 1.7e6)
	vbr := video.EncodeVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	pairs := [][2]*video.Encoding{{cbrLo, cbrLo}, {vbr, vbr}, {cbrLo, cbrHi}}
	rng := sim.NewRNG(17)
	var ev Evaluator
	distinct := map[Evaluation]bool{}
	for i := 0; i < 50; i++ {
		pair := pairs[i%len(pairs)]
		n := len(pair[0].Frames)
		tr := lossyTrace(rng, n-rng.Intn(n-10), []float64{0, 0.005, 0.02, 0.3}[rng.Intn(4)])
		if i%11 == 10 {
			tr = &trace.Trace{ClipFrames: n}
		}
		got, want := ev.Evaluate(tr, pair[0], pair[1]), Evaluate(tr, pair[0], pair[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d (%d of %d frames): reused evaluator %+v, fresh %+v",
				i, len(tr.Records), tr.ClipFrames, got, want)
		}
		distinct[got] = true
		// Freezes feed no score, so compare the displayed sequence too.
		dtr := tr
		if pair[0].CBR {
			dtr = client.DecodeMPEG(tr, pair[0])
		}
		d := render.Conceal(dtr)
		if !slices.Equal(ev.disp.Frames, d.Frames) || !slices.Equal(ev.disp.Damage, d.Damage) ||
			!slices.Equal(ev.disp.Freezes, d.Freezes) || ev.disp.Repeats != d.Repeats {
			t.Fatalf("trace %d: reused displayed sequence differs from a fresh Conceal", i)
		}
	}
	if len(distinct) < 25 {
		t.Errorf("only %d distinct evaluations over 50 traces — the inputs did not vary", len(distinct))
	}
}

package render

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// TestConcealProperties checks invariants of the concealment step over
// random loss/delay patterns:
//
//  1. every received frame is displayed exactly once (pause, not skip);
//  2. displayed indices are non-decreasing;
//  3. slot count = received frames + repeat slots;
//  4. the freeze ledger sums to the repeat count.
func TestConcealProperties(t *testing.T) {
	iv := video.FrameInterval()
	f := func(lossSeed uint64, delayedPct uint8) bool {
		n := 400
		rng := newSplitMix(lossSeed)
		tr := &trace.Trace{ClipFrames: n}
		for i := 0; i < n; i++ {
			if rng()%100 < 20 {
				continue // lost
			}
			at := units.Time(int64(i)) * iv
			arr := at
			if uint8(rng()%100) < delayedPct%40 {
				arr += units.Time(rng()%3) * units.Second
			}
			tr.Add(trace.FrameRecord{Seq: i, Arrival: arr, Presentation: at, Frags: 1})
		}
		// Arrival order may be perturbed by delays; records stay
		// sorted by seq (the client sorts before handing off).
		sort.Slice(tr.Records, func(a, b int) bool { return tr.Records[a].Seq < tr.Records[b].Seq })
		d := Conceal(tr)

		if len(tr.Records) == 0 {
			return len(d.Frames) == 0
		}
		shown := map[int]int{}
		prev := -1
		for _, f := range d.Frames {
			if f < prev {
				return false // went backwards
			}
			if f != prev {
				shown[f]++
			}
			prev = f
		}
		for _, r := range tr.Records {
			if shown[r.Seq] != 1 {
				return false // skipped or double-shown
			}
		}
		if len(d.Frames) != len(tr.Records)+d.Repeats {
			return false
		}
		sum := 0
		for _, fr := range d.Freezes {
			sum += fr
		}
		return sum == d.Repeats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newSplitMix gives the property test its own tiny deterministic
// generator so testing/quick's seeds fully determine the trace.
func newSplitMix(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

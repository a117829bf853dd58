// Package render reimplements the paper's renderer-concealment step
// (§3.1.2, Fig. 2): the PERL script that took the stored received
// frames plus their timing file and produced the frame sequence a
// viewer actually saw, with the previous frame repeated whenever the
// playback buffer ran dry because of lost or delayed frames.
//
// The output is a displayed-frame index sequence at uniform frame
// slots; index -1 marks slots before the first frame was available.
package render

import (
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// startupDelay is the client's initial buffering time after the first
// frame arrives before playback starts. Streaming clients of the era
// buffered a few seconds.
const startupDelay = 2 * units.Second

// Displayed is the concealed output sequence.
type Displayed struct {
	// Frames[i] is the source frame index shown at display slot i.
	Frames []int
	// Damage[i] is the concealed-loss damage fraction of the frame
	// shown at slot i (0 for intact frames and repeats of them).
	Damage []float64
	// Repeats counts slots where the previous frame was repeated
	// because the buffer was empty (the offset went negative).
	Repeats int
	// Freezes lists the length (in slots) of each repeat run.
	Freezes []int
}

// LongestFreeze reports the longest repeat run in slots.
func (d *Displayed) LongestFreeze() int {
	max := 0
	for _, f := range d.Freezes {
		if f > max {
			max = f
		}
	}
	return max
}

// Conceal converts a received-frame trace into the displayed sequence.
//
// The model follows Fig. 2's offset mechanism: playback starts
// startupDelay after the first frame arrives; at each uniform display
// slot the renderer shows the next received frame in sequence order if
// it has arrived, and otherwise repeats the last shown frame (the
// playback buffer is empty — a negative offset in the paper's terms).
// A frame that was lost in the network simply never arrives, so the
// renderer steps over the gap to the next received frame; a burst loss
// or a delivery stall therefore shows up as a freeze whose length
// matches the outage, after which playback resumes time-shifted, which
// is precisely what the VQM temporal-calibration stage has to chase.
func Conceal(tr *trace.Trace) *Displayed {
	d := &Displayed{}
	ConcealInto(d, tr)
	return d
}

// ConcealInto is Conceal writing over d, reusing the capacity of its
// slices: the form for a caller that conceals trace after trace.
func ConcealInto(d *Displayed, tr *trace.Trace) {
	*d = Displayed{Frames: d.Frames[:0], Damage: d.Damage[:0], Freezes: d.Freezes[:0]}
	recs := tr.Records
	if len(recs) == 0 {
		return
	}
	interval := video.FrameInterval()
	start := recs[0].Arrival + startupDelay
	p0 := recs[0].Presentation
	var shift units.Time // accumulated playback pause from stalls
	i := 0               // next record to show
	last := -1
	lastDamage := 0.0
	freeze := 0
	endFreeze := func() {
		if freeze > 0 {
			d.Freezes = append(d.Freezes, freeze)
			freeze = 0
		}
	}
	for slot := 0; i < len(recs); slot++ {
		t := start + units.Time(int64(slot))*interval
		// The frame's position on the (possibly paused) playback
		// timeline.
		due := start + (recs[i].Presentation - p0) + shift
		switch {
		case due <= t && recs[i].Arrival <= t:
			// Frame is due and buffered: show it.
			last = recs[i].Seq
			lastDamage = recs[i].DamageFraction()
			i++
			endFreeze()
		case due <= t:
			// Frame is due but has not arrived: the playback buffer
			// is empty (negative offset in Fig. 2's terms). Repeat
			// the previous frame and pause the timeline one slot.
			shift += interval
			d.Repeats++
			freeze++
		default:
			// Frame is buffered (or absent) but not yet due — e.g.
			// its predecessors were lost. Repeat in place without
			// pausing the timeline.
			if last >= 0 {
				d.Repeats++
				freeze++
			}
		}
		d.Frames = append(d.Frames, last)
		d.Damage = append(d.Damage, lastDamage)
		// Safety valve: a pathological trace (arrival far in the
		// future) must not spin forever; cap any stall at 10 min.
		const maxStallSlots = 600 * video.FPSNum / video.FPSDen // ≈ 10 min
		if freeze > maxStallSlots {
			break
		}
	}
	endFreeze()
}

// Package trace holds the frame timing records the instrumented client
// produces — the simulation analog of the "parallel ASCII file" the
// paper's DirectShow storage filter wrote next to the BigYUV frame
// dump (§3.1.2) — plus a text encoding so traces can be saved and fed
// to cmd/vqmtool offline, exactly like the original workflow.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/units"
)

// FrameRecord is the timing of one received (decodable) frame.
type FrameRecord struct {
	Seq          int        // frame sequence number in the clip
	Arrival      units.Time // when the last byte of the frame arrived
	Presentation units.Time // when the frame was due to be rendered

	// Frags and LostFrags describe partial delivery: a decoder that
	// concealed LostFrags missing slices still produced the frame,
	// but with visible damage the quality model accounts for.
	Frags     int
	LostFrags int
}

// DamageFraction reports the fraction of the frame's fragments that
// were concealed rather than received.
func (r FrameRecord) DamageFraction() float64 {
	if r.Frags <= 0 {
		return 0
	}
	return float64(r.LostFrags) / float64(r.Frags)
}

// Trace is the ordered set of received-frame records for one run.
type Trace struct {
	ClipFrames int // total frames in the original clip
	Records    []FrameRecord
}

// Add appends a record.
func (t *Trace) Add(r FrameRecord) { t.Records = append(t.Records, r) }

// SortBySeq orders records by frame sequence (receivers can complete
// frames out of order when fragments interleave; most traces arrive
// already in order).
func (t *Trace) SortBySeq() {
	bySeq := func(a, b FrameRecord) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(t.Records, bySeq) {
		slices.SortFunc(t.Records, bySeq)
	}
}

// LostFrames reports how many of the clip's frames never arrived.
func (t *Trace) LostFrames() int { return t.ClipFrames - len(t.Records) }

// FrameLossFraction is the headline network-level metric of every
// figure: the fraction of the clip's frames never delivered.
func (t *Trace) FrameLossFraction() float64 {
	if t.ClipFrames == 0 {
		return 0
	}
	return float64(t.LostFrames()) / float64(t.ClipFrames)
}

// LateFrames reports frames that arrived after their presentation
// time by more than slack.
func (t *Trace) LateFrames(slack units.Time) int {
	n := 0
	for _, r := range t.Records {
		if r.Arrival > r.Presentation+slack {
			n++
		}
	}
	return n
}

// WriteTo emits the ASCII format: a header line then one
// "seq arrival_ns presentation_ns" line per frame.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	c, err := fmt.Fprintf(w, "frames %d received %d\n", t.ClipFrames, len(t.Records))
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, r := range t.Records {
		c, err := fmt.Fprintf(w, "%d %d %d %d %d\n",
			r.Seq, int64(r.Arrival), int64(r.Presentation), r.Frags, r.LostFrags)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read parses the ASCII format produced by WriteTo.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	var total, recv int
	if _, err := fmt.Sscanf(sc.Text(), "frames %d received %d", &total, &recv); err != nil {
		return nil, fmt.Errorf("trace: bad header %q: %w", sc.Text(), err)
	}
	t := &Trace{ClipFrames: total}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var seq, frags, lost int
		var a, p int64
		if n, err := fmt.Sscanf(line, "%d %d %d %d %d", &seq, &a, &p, &frags, &lost); err != nil && n < 3 {
			return nil, fmt.Errorf("trace: bad record %q: %w", line, err)
		}
		t.Add(FrameRecord{
			Seq: seq, Arrival: units.Time(a), Presentation: units.Time(p),
			Frags: frags, LostFrags: lost,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

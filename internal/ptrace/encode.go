package ptrace

import (
	"bufio"
	"fmt"
	"io"
)

// Data is the materialised form of a capture: the hop name table plus
// the retained events. The tools never build one — they stream
// (AnalyzeStream, AttributeFrameLoss) — so it is the reference the
// equivalence tests compare captures with, and what a ring save writes.
type Data struct {
	Hops   []string
	Seen   uint64 // total events emitted during the run
	Events []Event

	fold *digester // set by Recorder.WriteTo: digest what is written
}

// hopName resolves id against a trace's hop table; ids beyond it get a
// numeric name, so resolving is total on whatever ids a file carries.
func hopName(hops []string, id HopID) string {
	if int(id) < len(hops) {
		return hops[id]
	}
	return fmt.Sprintf("hop#%d", id)
}

// WriteTo emits the capture in the binary v2 encoding (encode_v2.go),
// through the same block writer the Recorder's spill mode uses.
func (d *Data) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	v := newV2Writer(bw)
	v.fold = d.fold
	for _, e := range d.Events {
		v.add(e)
	}
	n, err := v.finish(d.Hops, d.Seen)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Read decodes a whole v2 trace into memory.
func Read(r io.Reader) (*Data, error) {
	d := &Data{}
	hops, seen, err := streamV2(r, func(e Event) { d.Events = append(d.Events, e) })
	if err != nil {
		return nil, err
	}
	d.Hops, d.Seen = hops, seen
	return d, nil
}

package ptrace

import "repro/internal/units"

// What only the tests use: the external tests reach the digester and
// a capture's hop table through these, and no product path does.

// DigestEvents folds evs into a fresh digester and seals it, as a
// digesting recorder does at Summary: the external tests compare the
// streaming analysis against it.
func DigestEvents(evs []Event, bucket units.Time, hops []string, seen uint64) *Summary {
	g := newDigester(bucket)
	for _, e := range evs {
		g.add(e)
	}
	return g.summarize(hops, seen)
}

// HopName resolves an event's hop against the data's name table.
func (d *Data) HopName(id HopID) string { return hopName(d.Hops, id) }

package sim

import "repro/internal/units"

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// When reports the scheduled time of a still-active event; 0 for a
// stale or cancelled handle.
func (h Handle) When() units.Time {
	if !h.Active() {
		return 0
	}
	return h.e.when
}

// Halt stops Run before the next event fires. Intended to be called
// from inside an event callback.
func (s *Simulator) Halt() { s.halted = true }

// NextEventTime peeks at the earliest pending event without firing
// it. The second result is false when nothing is pending.
func (s *Simulator) NextEventTime() (units.Time, bool) {
	e := s.min()
	if e == nil {
		return 0, false
	}
	return e.when, true
}

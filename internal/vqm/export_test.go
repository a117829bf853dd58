package vqm

import "repro/internal/units"

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// MOS maps the 0..1 quality index onto the ITU-T five-point mean
// opinion score scale the subjective studies behind the tool used
// (§2.3): index 0 ⇒ MOS 5 (excellent), index 1 ⇒ MOS 1 (bad).
func (r *Result) MOS() float64 {
	return units.Clamp(5-4*r.Index, 1, 5)
}

// correlation is the Pearson correlation of two equal-length vectors,
// as scoreSegment computes it one alignment shift at a time.
func correlation(a, b []float64) float64 {
	ma, va := moments(a)
	return correlationWith(a, ma, va, b)
}

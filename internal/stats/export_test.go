package stats

import "math"

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// CI95 reports the half-width of the 95% confidence interval of the
// mean under the normal approximation.
func (s *Summary) CI95() float64 {
	n := float64(len(s.samples))
	if n < 2 {
		return 0
	}
	return 1.96 * s.stddev() / math.Sqrt(n)
}

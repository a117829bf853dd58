package stats

import "math"

// This file holds the bounded-memory counterparts of Summary: Welford
// streaming moments and the P² quantile sketch. Summary keeps every
// sample for exact percentiles, which is the right trade for a few
// hundred thousand samples; the aggregated-stats mode of the fleet
// scenarios feeds hundreds of millions of per-packet observations
// through a handful of per-class accumulators, so those accumulators
// must be O(1) in memory and allocation-free per observation.

// Moments accumulates count, mean, variance, min and max of a sample
// stream in O(1) space using Welford's recurrence. Against Summary on
// the same stream it agrees to floating-point precision (the moments
// property test pins this); unlike Summary it never retains samples.
// The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (m *Moments) Add(v float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = v, v
	} else {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	d := v - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (v - m.mean)
}

// N reports the sample count.
func (m *Moments) N() int64 { return m.n }

// Mean reports the sample mean (0 for no samples).
func (m *Moments) Mean() float64 { return m.mean }

// variance reports the population variance, matching Summary.variance.
func (m *Moments) variance() float64 {
	if m.n == 0 {
		return 0
	}
	v := m.m2 / float64(m.n)
	if v < 0 {
		v = 0 // float cancellation guard
	}
	return v
}

// Stddev reports the population standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.variance()) }

// Min reports the smallest sample (0 for none).
func (m *Moments) Min() float64 { return m.min }

// Max reports the largest sample (0 for none).
func (m *Moments) Max() float64 { return m.max }

// P2Quantile estimates one quantile of a sample stream in O(1) space
// with the P² algorithm (Jain & Chlamtac, CACM 1985): five markers
// track the running minimum, the target quantile, the midpoints to
// either side, and the maximum; each observation shifts marker
// positions and adjusts marker heights by a piecewise-parabolic
// interpolation. Add is allocation-free, which is what lets a
// per-class delay sketch sit on the packet delivery hot path. The
// estimate converges to the true quantile as the stream grows; the
// sketch property test bounds its error against exact percentiles on
// reference distributions. The zero value is unusable; call
// NewP2Quantile.
type P2Quantile struct {
	p     float64
	n     int64      // observations seen
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired marker positions
	dwant [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns a sketch for the p-th quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	s := &P2Quantile{}
	s.Init(p)
	return s
}

// Init readies a zero-value sketch for the p-th quantile, 0 < p < 1,
// discarding any prior observations. It exists so aggregates that hold
// many sketches — one per flow of a fleet-scale trace digest — can
// embed them by value instead of paying a pointer and an allocation
// apiece.
func (s *P2Quantile) Init(p float64) {
	if p <= 0 || p >= 1 {
		panic("stats: P2 quantile must be in (0, 1)")
	}
	*s = P2Quantile{p: p}
	s.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// Add records one observation.
func (s *P2Quantile) Add(v float64) {
	s.n++
	if s.n <= 5 {
		// Insertion-sort the bootstrap observations into the markers.
		i := int(s.n) - 1
		s.q[i] = v
		for i > 0 && s.q[i-1] > s.q[i] {
			s.q[i-1], s.q[i] = s.q[i], s.q[i-1]
			i--
		}
		if s.n == 5 {
			for j := range s.pos {
				s.pos[j] = float64(j + 1)
				s.want[j] = 1 + 4*s.dwant[j]
			}
		}
		return
	}
	// Locate the cell of v, extending the extreme markers if needed.
	var k int
	switch {
	case v < s.q[0]:
		s.q[0] = v
		k = 0
	case v >= s.q[4]:
		s.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.want {
		s.want[i] += s.dwant[i]
	}
	// Nudge the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			q := s.parabolic(i, sign)
			if s.q[i-1] < q && q < s.q[i+1] {
				s.q[i] = q
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height adjustment.
func (s *P2Quantile) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback when the parabola leaves the bracket.
func (s *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Value reports the current quantile estimate. Streams shorter than
// five observations fall back to the exact order statistic.
func (s *P2Quantile) Value() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n <= 5 {
		// Exact quantile of the sorted bootstrap prefix, by nearest rank.
		k := int(s.p * float64(s.n))
		if k >= int(s.n) {
			k = int(s.n) - 1
		}
		return s.q[k]
	}
	return s.q[2]
}

package main

import "sort"

// Dist summarizes repeated measurements of one quantity. A metric's
// value is the median; the quartiles are what -compare uses to tell a
// move from the host's noise. Samples keeps every repetition so a
// later comparison can apply the "every NEW run beats every OLD run"
// rule exactly.
type Dist struct {
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize builds the Dist of xs. The quartiles follow Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), because that
// is what the benchmark driver computes over whole runs; using one
// definition at both levels keeps the spreads comparable.
func summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s),
		Samples: append([]float64(nil), xs...)}
	d.P25, d.P75 = quartile(s, 1), quartile(s, 3)
	return d
}

// exact is the Dist of a single exact reading (a count, a high-water
// mark): all quantiles coincide.
func exact(v float64) Dist {
	return Dist{Median: v, P25: v, P75: v, Min: v, Max: v, N: 1}
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartile i (1..3) of a sorted slice, exclusive method.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the inter-quartile distance as a share of the median — the
// noise figure every bound is judged against.
func (d Dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.P75 - d.P25) / d.Median
}

package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the property tests pin
// exact streams without importing the simulator RNG.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / float64(1<<53)
}

// streams the property tests run over: the uniform and heavy-tailed
// shapes the delay sketches see in practice.
func testStreams() map[string][]float64 {
	g := lcg(12345)
	uniform := make([]float64, 20000)
	for i := range uniform {
		uniform[i] = g.next()
	}
	exp := make([]float64, 20000)
	for i := range exp {
		exp[i] = -math.Log(1 - g.next())
	}
	bimodal := make([]float64, 20000)
	for i := range bimodal {
		v := g.next()
		if g.next() < 0.2 {
			v += 10
		}
		bimodal[i] = v
	}
	return map[string][]float64{"uniform": uniform, "exponential": exp, "bimodal": bimodal}
}

// TestMomentsMatchSummary pins the streaming moments against the
// sample-retaining Summary on identical streams: the aggregated-stats
// mode reports Moments where per-flow mode reports Summary, and the
// two must agree to floating-point precision.
func TestMomentsMatchSummary(t *testing.T) {
	for name, xs := range testStreams() {
		var m Moments
		var s Summary
		for _, x := range xs {
			m.Add(x)
			s.add(x)
		}
		if m.N() != int64(s.n()) {
			t.Errorf("%s: n %d vs %d", name, m.N(), s.n())
		}
		close := func(what string, a, b float64) {
			if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
				t.Errorf("%s: %s %g vs exact %g", name, what, a, b)
			}
		}
		close("mean", m.Mean(), s.Mean())
		close("var", m.variance(), s.variance())
		close("stddev", m.Stddev(), s.stddev())
		close("min", m.Min(), s.min())
		close("max", m.Max(), s.max())
	}
}

// TestP2QuantileWithinErrorBounds pins the P² sketch against exact
// percentiles on the reference streams. P² carries no worst-case
// bound, so the tolerance is empirical — 2% of the sample spread —
// and the deterministic streams make the assertion exact-repeatable.
func TestP2QuantileWithinErrorBounds(t *testing.T) {
	for name, xs := range testStreams() {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			sk := NewP2Quantile(p)
			var s Summary
			for _, x := range xs {
				sk.Add(x)
				s.add(x)
			}
			exact := s.Percentile(p * 100)
			tol := 0.02 * (s.max() - s.min())
			if got := sk.Value(); math.Abs(got-exact) > tol {
				t.Errorf("%s p%.0f: sketch %g vs exact %g (tol %g)", name, p*100, got, exact, tol)
			}
		}
	}
}

// TestP2QuantileShortStreams pins the exact-order-statistic fallback
// for streams shorter than the five bootstrap markers.
func TestP2QuantileShortStreams(t *testing.T) {
	sk := NewP2Quantile(0.5)
	if sk.Value() != 0 {
		t.Errorf("empty sketch value = %g", sk.Value())
	}
	sk.Add(3)
	if sk.Value() != 3 {
		t.Errorf("one-sample median = %g, want 3", sk.Value())
	}
	sk.Add(1)
	sk.Add(2)
	if got := sk.Value(); got != 2 {
		t.Errorf("three-sample median = %g, want 2", got)
	}
}

// TestP2QuantileMonotoneStream feeds a sorted stream — the hardest
// case for marker drift — and checks the median lands mid-range.
func TestP2QuantileMonotoneStream(t *testing.T) {
	sk := NewP2Quantile(0.5)
	for i := 0; i < 10001; i++ {
		sk.Add(float64(i))
	}
	if got := sk.Value(); math.Abs(got-5000) > 200 {
		t.Errorf("median of 0..10000 estimated at %g", got)
	}
}

package main

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs: the driver computes its spreads with it.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs            []float64
		p25, med, p75 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1.0, 1.1, 1.3, 1.7, 2.5, 2.6, 3.9, 4.0, 4.1}, 1.2, 2.5, 3.95},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		d := summarize(c.xs)
		if math.Abs(d.P25-c.p25) > 1e-12 || math.Abs(d.Median-c.med) > 1e-12 || math.Abs(d.P75-c.p75) > 1e-12 {
			t.Errorf("summarize(%v) = p25 %v median %v p75 %v, want %v %v %v", c.xs, d.P25, d.Median, d.P75, c.p25, c.med, c.p75)
		}
		if d.N != len(c.xs) || len(d.Samples) != len(c.xs) {
			t.Errorf("summarize(%v): n %d, %d samples", c.xs, d.N, len(d.Samples))
		}
	}
	d := summarize([]float64{4, 2, 8})
	if d.Min != 2 || d.Max != 8 {
		t.Errorf("min/max = %v/%v, want 2/8", d.Min, d.Max)
	}
	if d.Samples[0] != 4 {
		t.Errorf("samples must keep repetition order, got %v", d.Samples)
	}
	if got := summarize(nil); got.N != 0 || got.Median != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestSpread(t *testing.T) {
	d := summarize([]float64{1, 2, 3, 4, 5})
	if got, want := d.spread(), (4.5-1.5)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if exact(0).spread() != 0 {
		t.Error("spread of a zero median must be 0, not NaN")
	}
}

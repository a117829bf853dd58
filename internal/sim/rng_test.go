package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds collided %d times", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.next() == 0 && r.next() == 0 && r.next() == 0 {
		t.Error("zero seed produced a dead generator")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("value %d never produced", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	var sum, sumSq float64
	n := 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		v := r.Exp(3.0)
		if v < 0 {
			t.Fatalf("Exp negative: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Fork()
	// Child stream must not replay the parent stream.
	p, c := NewRNG(21), child
	same := 0
	for i := 0; i < 100; i++ {
		if p.next() == c.next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("fork replays parent: %d collisions", same)
	}
}

package tokenbucket

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestBucketStartsFull(t *testing.T) {
	b := newBucket(1*units.Mbps, 3000)
	if got := b.Tokens(0); got != 3000 {
		t.Errorf("initial tokens = %d, want 3000", got)
	}
	if !b.conform(0, 3000) {
		t.Error("full bucket rejected a depth-sized packet")
	}
	if b.conform(0, 1) {
		t.Error("empty bucket accepted a packet")
	}
}

func TestBucketRefillExact(t *testing.T) {
	// 8 Mbps = 1 byte per microsecond.
	b := newBucket(8*units.Mbps, 10000)
	b.conform(0, 10000) // drain
	if got := b.Tokens(1500 * units.Microsecond); got != 1500 {
		t.Errorf("tokens after 1.5ms = %d, want 1500", got)
	}
}

func TestBucketCapsAtDepth(t *testing.T) {
	b := newBucket(8*units.Mbps, 3000)
	if got := b.Tokens(time10s()); got != 3000 {
		t.Errorf("tokens = %d, want cap 3000", got)
	}
}

func time10s() units.Time { return 10 * units.Second }

func TestOversizedPacketNeverConforms(t *testing.T) {
	b := newBucket(10*units.Mbps, 3000)
	if b.conform(0, 3001) {
		t.Error("packet larger than depth conformed")
	}
	if _, ok := b.nextConformTime(0, 3001); ok {
		t.Error("nextConformTime claims an oversized packet can conform")
	}
}

func TestNextConformTime(t *testing.T) {
	b := newBucket(8*units.Mbps, 3000) // 1 B/µs
	b.conform(0, 3000)
	at, ok := b.nextConformTime(0, 1500)
	if !ok {
		t.Fatal("nextConformTime not ok")
	}
	want := 1500 * units.Microsecond
	if at < want || at > want+units.Microsecond {
		t.Errorf("nextConformTime = %v, want ≈%v", at, want)
	}
	// And the packet must actually conform then.
	if !b.conform(at, 1500) {
		t.Error("packet did not conform at nextConformTime")
	}
}

func TestNextConformTimeImmediate(t *testing.T) {
	b := newBucket(units.Mbps, 3000)
	at, ok := b.nextConformTime(5*units.Second, 1000)
	if !ok || at != 5*units.Second {
		t.Errorf("immediate conform: at=%v ok=%v", at, ok)
	}
}

func TestDebitGoesNegative(t *testing.T) {
	b := newBucket(8*units.Mbps, 3000)
	b.debit(0, 5000)
	if b.conform(0, 1) {
		t.Error("negative bucket conformed")
	}
	// After enough refill it recovers: 5000 deficit + 1 byte.
	if !b.conform(5200*units.Microsecond, 1) {
		t.Error("bucket did not recover from negative credit")
	}
}

func TestBucketRateDepthAccessors(t *testing.T) {
	b := newBucket(2*units.Mbps, 4500)
	if b.rate != 2*units.Mbps || b.depth != 4500 {
		t.Errorf("accessors: %v %v", b.rate, b.depth)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

func TestBucketPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { newBucket(0, 100) },
		func() { newBucket(units.Mbps, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestBucketLongRunRate checks the fundamental policer property: over
// a long window, the bytes admitted by a saturated bucket converge to
// rate*time + depth.
func TestBucketLongRunRate(t *testing.T) {
	b := newBucket(2*units.Mbps, 3000)
	var admitted int64
	now := units.Time(0)
	for i := 0; i < 200000; i++ {
		now += 100 * units.Microsecond // offered 1500B/100µs = 120 Mbps
		if b.conform(now, 1500) {
			admitted += 1500
		}
	}
	want := int64(float64(2*units.Mbps)/8*now.Seconds()) + 3000
	diff := admitted - want
	if diff < -1500 || diff > 1500 {
		t.Errorf("admitted %d bytes, want %d ±1500", admitted, want)
	}
}

// TestBucketNeverExceedsProfile is the property-based version: for any
// arrival pattern, admitted bytes over [0,T] never exceed rate*T+depth.
func TestBucketNeverExceedsProfile(t *testing.T) {
	f := func(gaps []uint16, sizes []uint16) bool {
		if len(gaps) == 0 {
			return true
		}
		b := newBucket(units.Mbps, 4500)
		now := units.Time(0)
		var admitted int64
		for i, g := range gaps {
			now += units.Time(g) * units.Microsecond
			size := 1
			if i < len(sizes) {
				size = int(sizes[i]%4500) + 1
			}
			if b.conform(now, size) {
				admitted += int64(size)
			}
		}
		limit := int64(float64(units.Mbps)/8*now.Seconds()) + 4500 + 1
		return admitted <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenBucketConform(b *testing.B) {
	tb := newBucket(2*units.Mbps, 3000)
	now := units.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 6 * units.Millisecond
		tb.conform(now, 1500)
	}
}

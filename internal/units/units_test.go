package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if Second != Time(time.Second) {
		t.Errorf("Second = %d, want %d", Second, time.Second)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.5s" {
		t.Errorf("String() = %q", s)
	}
}

func TestTxTime(t *testing.T) {
	// 1500 bytes at 12 kbps is exactly one second.
	r := BitRate(12000)
	if got := r.TxTime(1500); got != Second {
		t.Errorf("TxTime = %v, want 1s", got)
	}
	if got := BitRate(0).TxTime(1500); got != 0 {
		t.Errorf("zero rate TxTime = %v, want 0", got)
	}
	// 2 Mbps, 1500B -> 6 ms.
	if got := (2 * Mbps).TxTime(1500); got != 6*Millisecond {
		t.Errorf("2Mbps TxTime(1500) = %v, want 6ms", got)
	}
}

func TestBytesIn(t *testing.T) {
	if got := (8 * Mbps).BytesIn(Second); got != 1_000_000 {
		t.Errorf("BytesIn = %d", got)
	}
	if got := (8 * Mbps).BytesIn(-Second); got != 0 {
		t.Errorf("negative duration BytesIn = %d", got)
	}
}

func TestTxTimeBytesInRoundTrip(t *testing.T) {
	// Transmitting n bytes then asking how many bytes fit in that time
	// must return (approximately) n for any positive rate.
	f := func(n uint16, rk uint16) bool {
		rate := BitRate(rk%10000+1) * Kbps
		bytes := int(n%60000) + 1
		dt := rate.TxTime(bytes)
		got := rate.BytesIn(dt)
		return math.Abs(float64(got)-float64(bytes)) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{1.7 * Mbps, "1.7Mbps"},
		{500 * Kbps, "500Kbps"},
		{2 * Gbps, "2Gbps"},
		{12, "12bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestByteSize(t *testing.T) {
	if s := (3 * kb).String(); s != "3KB" {
		t.Errorf("String = %q", s)
	}
	if s := ByteSize(42).String(); s != "42B" {
		t.Errorf("String = %q", s)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	f := func(v, lo, hi float64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		c := Clamp(v, lo, hi)
		return c >= lo && c <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBitRate(t *testing.T) {
	cases := map[string]BitRate{
		"1.7M":   1.7e6,
		"900k":   9e5,
		"900K":   9e5,
		"2g":     2e9,
		"250000": 250000,
		" 1.5M ": 1.5e6,
	}
	for in, want := range cases {
		got, err := ParseBitRate(in)
		if err != nil || got != want {
			t.Errorf("ParseBitRate(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fast", "-3M", "1.2X"} {
		if _, err := ParseBitRate(bad); err == nil {
			t.Errorf("ParseBitRate(%q) accepted", bad)
		}
	}
}

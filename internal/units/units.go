// Package units provides the small set of physical quantities the
// simulator traffics in: bit rates, byte sizes, and simulated time.
//
// Simulated time is an int64 nanosecond count from the start of the
// experiment, mirroring time.Duration so the two interconvert freely.
// Bit rates are expressed in bits per second as float64 for arithmetic
// convenience, with helpers that keep token-bucket math in exact
// byte·nanosecond integer space where it matters.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Time is a simulated clock reading in nanoseconds since the start of
// the run. The zero value is the start of the simulation.
type Time int64

// Common simulated durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t using time.Duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a time.Duration to a simulated Time.
func FromDuration(d time.Duration) Time { return Time(d) }

// FromSeconds converts floating-point seconds to a simulated Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// BitRate is a transmission rate in bits per second.
type BitRate float64

// Common rates.
const (
	bitPerSecond BitRate = 1
	Kbps                 = 1e3 * bitPerSecond
	Mbps                 = 1e6 * bitPerSecond
	Gbps                 = 1e9 * bitPerSecond
)

// String formats the rate with an appropriate SI suffix.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.4gMbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.4gKbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%gbps", float64(r))
	}
}

// TxTime reports how long transmitting n bytes takes at rate r.
// A zero or negative rate means an infinitely fast link: zero time.
func (r BitRate) TxTime(n int) Time {
	if r <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return Time(bits / float64(r) * float64(Second))
}

// ByteSize is a size in bytes.
type ByteSize int64

// Common sizes.
const (
	oneByte ByteSize = 1
	kb               = 1000 * oneByte
	mb               = 1000 * kb
)

// String formats the size with an SI suffix.
func (s ByteSize) String() string {
	switch {
	case s >= mb:
		return fmt.Sprintf("%.4gMB", float64(s)/float64(mb))
	case s >= kb:
		return fmt.Sprintf("%.4gKB", float64(s)/float64(kb))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// EthernetMTU is the classic Ethernet maximum transmission unit the
// paper's EF discussion is phrased in ("two to three link MTUs").
const EthernetMTU = 1500

// ParseBitRate parses a human-friendly rate: "1.7M", "900k", "250000".
// A negative or non-finite rate (NaN, ±Inf, or a suffix product past
// the float64 range, such as "1e306G") is an error; errors quote the
// input as given.
func ParseBitRate(s string) (BitRate, error) {
	in := s
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1e6, s[:len(s)-1]
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad bit rate %q: %w", in, err)
	}
	v *= mult
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: bit rate %q is not finite", in)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative bit rate %q", in)
	}
	return BitRate(v), nil
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Package tokenbucket implements the traffic conditioning elements the
// paper's experiments revolve around: the token bucket itself, a
// dropping policer, a delaying shaper, and the RFC 2697 single-rate
// three-color marker used for Assured Forwarding.
//
// Token arithmetic is done in integer token-nanoseconds so that two
// runs of the same experiment produce identical conformance decisions:
// a bucket of depth B bytes filling at R bits/s holds B*8e9/R
// "credit-nanoseconds", and a packet of size S bytes costs S*8e9/R.
// Working in this space avoids float drift across millions of packets.
package tokenbucket

import (
	"fmt"

	"repro/internal/units"
)

// bucket is a classic token bucket: tokens (bytes of credit) arrive at
// rate up to depth. conform(n) answers whether n bytes may pass now and
// debits them if so. The zero value is unusable; call newBucket.
type bucket struct {
	rate  units.BitRate
	depth units.ByteSize

	// tokens are tracked as bytes scaled by 1e9 (i.e. byte-nanoseconds
	// of credit at 1 B/ns) to keep refill exact under integer math.
	scaled     int64 // current credit, in 1e-9 bytes
	scaledMax  int64
	lastUpdate units.Time
}

const tokenScale = 1e9

// newBucket returns a bucket that starts full, which matches both the
// router implementations in the paper's testbed and RFC 2697/2698.
func newBucket(rate units.BitRate, depth units.ByteSize) *bucket {
	b := new(bucket)
	b.reset(rate, depth)
	return b
}

// reset (re)initializes b in place to a full bucket — newBucket over
// caller-owned storage, so six-figure fan-outs can lay their buckets
// out contiguously instead of as N scattered allocations.
func (b *bucket) reset(rate units.BitRate, depth units.ByteSize) {
	if rate <= 0 {
		panic("tokenbucket: non-positive rate")
	}
	if depth <= 0 {
		panic("tokenbucket: non-positive depth")
	}
	*b = bucket{rate: rate, depth: depth}
	b.scaledMax = int64(depth) * tokenScale
	b.scaled = b.scaledMax
}

// refill advances the bucket state to time now.
func (b *bucket) refill(now units.Time) {
	if now <= b.lastUpdate {
		return
	}
	dt := now - b.lastUpdate
	b.lastUpdate = now
	// bytes/ns = rate/8e9; scaled credit gained = dt * rate/8 (in 1e-9 B).
	gain := int64(float64(dt) * float64(b.rate) / 8)
	b.scaled += gain
	if b.scaled > b.scaledMax {
		b.scaled = b.scaledMax
	}
}

// conform reports whether n bytes conform at time now, debiting the
// bucket if they do. Packets larger than the bucket depth can never
// conform (the EF small-depth pathology the paper studies).
func (b *bucket) conform(now units.Time, n int) bool {
	b.refill(now)
	need := int64(n) * tokenScale
	if need > b.scaled {
		return false
	}
	b.scaled -= need
	return true
}

// debit unconditionally removes n bytes of credit (may go negative);
// used by shapers that have already committed to sending.
func (b *bucket) debit(now units.Time, n int) {
	b.refill(now)
	b.scaled -= int64(n) * tokenScale
}

// nextConformTime reports the earliest time ≥ now at which n bytes
// would conform, assuming no intervening debits. If n exceeds the
// depth it reports ok=false: the packet can never conform.
func (b *bucket) nextConformTime(now units.Time, n int) (t units.Time, ok bool) {
	if int64(n) > int64(b.depth) {
		return 0, false
	}
	b.refill(now)
	need := int64(n)*tokenScale - b.scaled
	if need <= 0 {
		return now, true
	}
	// wait = need / (rate/8) nanoseconds, rounded up.
	rateScaled := float64(b.rate) / 8 // 1e-9 B per ns
	wait := units.Time(float64(need)/rateScaled) + 1
	return now + wait, true
}

// String describes the bucket configuration.
func (b *bucket) String() string {
	return fmt.Sprintf("bucket{r=%v b=%v}", b.rate, b.depth)
}

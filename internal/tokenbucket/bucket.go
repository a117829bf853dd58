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

// bucketConfig is a token bucket's profile: tokens (bytes of credit)
// arrive at rate up to depth. It holds no state — its methods act on
// the credit they are handed — so one configuration can govern many
// buckets: a class of policers shares one. The zero value is unusable;
// call set.
type bucketConfig struct {
	rate      units.BitRate
	depth     units.ByteSize
	scaledMax int64 // depth, in credit's scale
}

// credit is one bucket's state. Tokens are tracked as bytes scaled by
// 1e9 (i.e. byte-nanoseconds of credit at 1 B/ns) to keep refill exact
// under integer math.
type credit struct {
	scaled     int64 // current credit, in 1e-9 bytes
	lastUpdate units.Time
}

const tokenScale = 1e9

// set configures c for rate and depth.
func (c *bucketConfig) set(rate units.BitRate, depth units.ByteSize) {
	if rate <= 0 {
		panic("tokenbucket: non-positive rate")
	}
	if depth <= 0 {
		panic("tokenbucket: non-positive depth")
	}
	*c = bucketConfig{rate: rate, depth: depth, scaledMax: int64(depth) * tokenScale}
}

// fill (re)starts s as a full bucket at time 0, which matches both the
// router implementations in the paper's testbed and RFC 2697/2698.
func (c *bucketConfig) fill(s *credit) { *s = credit{scaled: c.scaledMax} }

// refill advances s to time now.
func (c *bucketConfig) refill(s *credit, now units.Time) {
	if now <= s.lastUpdate {
		return
	}
	dt := now - s.lastUpdate
	s.lastUpdate = now
	// bytes/ns = rate/8e9; scaled credit gained = dt * rate/8 (in 1e-9 B).
	gain := int64(float64(dt) * float64(c.rate) / 8)
	s.scaled += gain
	if s.scaled > c.scaledMax {
		s.scaled = c.scaledMax
	}
}

// conform reports whether n bytes conform to s at time now, debiting s
// if they do. Packets larger than the bucket depth can never conform
// (the EF small-depth pathology the paper studies).
func (c *bucketConfig) conform(s *credit, now units.Time, n int) bool {
	c.refill(s, now)
	need := int64(n) * tokenScale
	if need > s.scaled {
		return false
	}
	s.scaled -= need
	return true
}

// debit unconditionally removes n bytes of credit from s (may go
// negative); used by shapers that have already committed to sending.
func (c *bucketConfig) debit(s *credit, now units.Time, n int) {
	c.refill(s, now)
	s.scaled -= int64(n) * tokenScale
}

// nextConformTime reports the earliest time ≥ now at which n bytes
// would conform to s, assuming no intervening debits. If n exceeds the
// depth it reports ok=false: the packet can never conform.
func (c *bucketConfig) nextConformTime(s *credit, now units.Time, n int) (t units.Time, ok bool) {
	if int64(n) > int64(c.depth) {
		return 0, false
	}
	c.refill(s, now)
	need := int64(n)*tokenScale - s.scaled
	if need <= 0 {
		return now, true
	}
	// wait = need / (rate/8) nanoseconds, rounded up.
	rateScaled := float64(c.rate) / 8 // 1e-9 B per ns
	wait := units.Time(float64(need)/rateScaled) + 1
	return now + wait, true
}

// String describes the bucket configuration.
func (c *bucketConfig) String() string {
	return fmt.Sprintf("bucket{r=%v b=%v}", c.rate, c.depth)
}

// bucket is a classic token bucket: a configuration with its own
// credit, as a shaper holds it. conform(n) answers whether n bytes may
// pass now and debits them if so. The zero value is unusable; call
// newBucket.
type bucket struct {
	bucketConfig
	credit
}

// newBucket returns a bucket that starts full.
func newBucket(rate units.BitRate, depth units.ByteSize) *bucket {
	b := new(bucket)
	b.set(rate, depth)
	b.fill(&b.credit)
	return b
}

func (b *bucket) conform(now units.Time, n int) bool {
	return b.bucketConfig.conform(&b.credit, now, n)
}

func (b *bucket) debit(now units.Time, n int) { b.bucketConfig.debit(&b.credit, now, n) }

func (b *bucket) nextConformTime(now units.Time, n int) (units.Time, bool) {
	return b.bucketConfig.nextConformTime(&b.credit, now, n)
}

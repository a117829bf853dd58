package tokenbucket

import "repro/internal/units"

// What only this package's tests read: no product path calls these,
// so they live beside the tests rather than on the package surface.

// Tokens reports the whole bytes of credit available at time now.
func (b *bucket) Tokens(now units.Time) int64 {
	b.refill(&b.credit, now)
	return b.scaled / tokenScale
}

// QueueLen reports the number of packets waiting in the shaper.
func (sh *Shaper) QueueLen() int { return sh.queue.Len() }

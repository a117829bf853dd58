package flowbatch

import (
	"repro/internal/units"
)

// flowWheel orders virtual-flow indices by (key[flow], flow) on a
// calendar of time buckets instead of a binary heap. At six-figure flow
// counts a heap's O(log N) sift touches log N random key-array cache
// lines per operation and dominated the fan-out's profile; the wheel
// makes every operation O(1) amortized: a push links the flow at the
// head of the bucket covering its key, the minimum is the
// (key, flow)-least entry of the first non-empty bucket, and the cursor
// only moves forward. Entries beyond the bucket window park on an
// overflow chain that is redistributed when the window drains (the sim
// calendar's design, applied to flow indices with an external key
// array).
//
// Buckets and the overflow are intrusive chains over two fixed arrays:
// head[b] is the first flow of bucket b, next[g] the flow after g on
// whichever chain holds it, -1 ending both. A flow may be in the wheel
// at most once (the package comment says why that and a single link
// are enough). Nothing in the wheel allocates after construction.
//
// The wheel is a pure data-structure swap: selection order is
// identical to the index heap's it replaced, which wheel_test.go keeps
// as the differential oracle, so the fan-out's emission order — and
// every byte downstream — is unchanged.
type flowWheel struct {
	key   []units.Time // external key array (nextArr or nextDel)
	width units.Time
	base  units.Time // start instant of bucket 0
	cur   int        // first possibly non-empty bucket

	head   []int32 // per bucket: first flow of its chain
	next   []int32 // per flow: successor on its bucket or overflow chain
	over   int32   // overflow chain head: entries with key >= base + window
	nOver  int     // entries on the overflow chain
	inBuck int     // live entries across buckets

	cachedMin    int32 // -1 when invalid
	cachedPrev   int32 // cachedMin's chain predecessor; -1 when it heads its bucket
	cachedBucket int
}

const (
	wheelMinBuckets = 1 << 8
	wheelMaxBuckets = 1 << 18
	wheelMinWidth   = 500 * units.Nanosecond
	wheelMaxWidth   = 100 * units.Microsecond
)

// newFlowWheel sizes the bucket lattice for an expected total of
// events spread over span: width ~ mean event spacing, clamped so the
// window stays wide enough for per-flow re-push distances and narrow
// enough that bucket scans stay short. The bucket count scales with
// the flow population — roughly every flow keeps one resident entry,
// so ~2 buckets per flow holds per-bucket occupancy (and with it the
// random key-array touches per pop) near one at any N.
func newFlowWheel(key []units.Time, events int64, span units.Time) flowWheel {
	width := wheelMaxWidth
	if events > 0 {
		if w := span / units.Time(events); w < width {
			width = w
		}
	}
	if width < wheelMinWidth {
		width = wheelMinWidth
	}
	n := wheelMinBuckets
	for n < wheelMaxBuckets && n < 2*len(key) {
		n <<= 1
	}
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return flowWheel{key: key, width: width, head: head, next: make([]int32, len(key)), over: -1, cachedMin: -1}
}

func (w *flowWheel) len() int { return w.inBuck + w.nOver }

func (w *flowWheel) window() units.Time { return w.width * units.Time(len(w.head)) }

// toBucket links g at the head of bucket b.
func (w *flowWheel) toBucket(b int, g int32) {
	w.next[g] = w.head[b]
	w.head[b] = g
	w.inBuck++
}

// toOverflow links g at the head of the overflow chain.
func (w *flowWheel) toOverflow(g int32) {
	w.next[g] = w.over
	w.over = g
	w.nOver++
}

// push inserts flow g keyed at key[g]; g must not already be in the
// wheel.
func (w *flowWheel) push(g int32) {
	t := w.key[g]
	if w.len() == 0 {
		w.base = (t / w.width) * w.width
		w.cur = 0
	} else if t < w.base {
		// A key before the window start (rare: a delivery scheduled
		// while the wheel had rebased past it). Spill everything,
		// rebase down, and re-file whatever the lowered window now
		// covers — overflow must never hold an in-window key, or min()
		// would answer from the buckets and miss it.
		w.spillAll()
		w.base = (t / w.width) * w.width
		w.cur = 0
		w.redistribute()
	}
	b := int((t - w.base) / w.width)
	if b >= len(w.head) {
		w.toOverflow(g)
		return
	}
	w.toBucket(b, g)
	if b < w.cur {
		w.cur = b
	}
	if m := w.cachedMin; m >= 0 {
		if t < w.key[m] || (t == w.key[m] && g < m) {
			w.cachedMin = -1
		} else if b == w.cachedBucket && w.cachedPrev < 0 {
			// The minimum headed this bucket; g now precedes it.
			w.cachedPrev = g
		}
	}
}

// min returns the flow with the least (key, flow); the wheel must be
// non-empty. All keys in an earlier bucket precede all keys in a
// later one, so the global minimum is the least entry of the first
// non-empty bucket.
func (w *flowWheel) min() int32 {
	if w.cachedMin >= 0 {
		return w.cachedMin
	}
	for {
		for b := w.cur; b < len(w.head); b++ {
			best := w.head[b]
			if best < 0 {
				w.cur = b + 1
				continue
			}
			bestPrev := int32(-1)
			for prev, g := best, w.next[best]; g >= 0; prev, g = g, w.next[g] {
				if w.key[g] < w.key[best] || (w.key[g] == w.key[best] && g < best) {
					best, bestPrev = g, prev
				}
			}
			w.cur = b
			w.cachedMin, w.cachedPrev, w.cachedBucket = best, bestPrev, b
			return best
		}
		w.rebase()
	}
}

// pop removes and returns the minimum.
func (w *flowWheel) pop() int32 {
	g := w.min()
	if w.cachedPrev < 0 {
		w.head[w.cachedBucket] = w.next[g]
	} else {
		w.next[w.cachedPrev] = w.next[g]
	}
	w.inBuck--
	w.cachedMin = -1
	return g
}

// fixMin re-files the current minimum after its key increased.
func (w *flowWheel) fixMin() {
	w.push(w.pop())
}

// rebase advances the window to the overflow's minimum key and pulls
// every overflow entry now inside the window into its bucket. Only
// called with all buckets empty.
func (w *flowWheel) rebase() {
	minT := w.key[w.over]
	for g := w.next[w.over]; g >= 0; g = w.next[g] {
		if w.key[g] < minT {
			minT = w.key[g]
		}
	}
	w.base = (minT / w.width) * w.width
	w.cur = 0
	w.redistribute()
}

// redistribute pulls every overflow entry inside the current window
// into its bucket, restoring the invariant that overflow keys are all
// at or beyond the window end.
func (w *flowWheel) redistribute() {
	win := w.window()
	g := w.over
	w.over, w.nOver = -1, 0
	for g >= 0 {
		next := w.next[g]
		if d := w.key[g] - w.base; d < win {
			w.toBucket(int(d/w.width), g)
		} else {
			w.toOverflow(g)
		}
		g = next
	}
}

// spillAll moves every bucketed entry to overflow (rare rebase-down
// path).
func (w *flowWheel) spillAll() {
	for b := w.cur; b < len(w.head); b++ {
		for g := w.head[b]; g >= 0; {
			next := w.next[g]
			w.toOverflow(g)
			g = next
		}
		w.head[b] = -1
	}
	w.inBuck = 0
	w.cachedMin = -1
}

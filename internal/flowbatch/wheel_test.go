package flowbatch

import (
	"math/rand"
	"testing"

	"repro/internal/units"
)

// flowHeap is a binary min-heap of virtual-flow indices ordered by an
// external key slice, ties broken by index — the structure the fan-out
// walked before the wheel, kept as the wheel's differential oracle.
type flowHeap struct {
	idx []int32
	key []units.Time
}

func (h *flowHeap) len() int   { return len(h.idx) }
func (h *flowHeap) min() int32 { return h.idx[0] }

func (h *flowHeap) less(a, b int32) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return a < b
}

func (h *flowHeap) push(i int32) {
	h.idx = append(h.idx, i)
	c := len(h.idx) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.less(h.idx[c], h.idx[p]) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

// fixMin restores heap order after the root's key changed.
func (h *flowHeap) fixMin() { h.siftDown(0) }

func (h *flowHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if len(h.idx) > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *flowHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(h.idx[l], h.idx[s]) {
			s = l
		}
		if r < n && h.less(h.idx[r], h.idx[s]) {
			s = r
		}
		if s == i {
			return
		}
		h.idx[i], h.idx[s] = h.idx[s], h.idx[i]
		i = s
	}
}

// checkWheelChains walks every bucket chain and the overflow chain and
// demands that each live flow is linked exactly once, in the bucket
// covering its key (or on overflow at or beyond the window end), and
// that the wheel's counters equal the walked counts. It returns the
// largest bucket occupancy seen.
func checkWheelChains(t *testing.T, w *flowWheel, live map[int32]bool) int {
	t.Helper()
	seen := make([]bool, len(w.next))
	visit := func(g int32, where string) {
		if !live[g] {
			t.Fatalf("flow %d linked in %s but not live", g, where)
		}
		if seen[g] {
			t.Fatalf("flow %d linked twice (again in %s)", g, where)
		}
		seen[g] = true
	}
	inBuck, maxOcc := 0, 0
	for b, g := range w.head {
		occ := 0
		for ; g >= 0; g = w.next[g] {
			visit(g, "a bucket")
			if got := int((w.key[g] - w.base) / w.width); w.key[g] < w.base || got != b {
				t.Fatalf("flow %d keyed %d sits in bucket %d, belongs in %d", g, w.key[g], b, got)
			}
			if b < w.cur {
				t.Fatalf("flow %d sits in bucket %d behind the cursor %d", g, b, w.cur)
			}
			occ++
		}
		inBuck += occ
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	nOver := 0
	for g := w.over; g >= 0; g = w.next[g] {
		visit(g, "overflow")
		if w.key[g]-w.base < w.window() {
			t.Fatalf("flow %d keyed %d is on overflow inside the window [%d, +%d)", g, w.key[g], w.base, w.window())
		}
		nOver++
	}
	if inBuck != w.inBuck || nOver != w.nOver || w.len() != len(live) || inBuck+nOver != len(live) {
		t.Fatalf("walked %d bucketed + %d overflow of %d live; wheel says inBuck %d nOver %d len %d",
			inBuck, nOver, len(live), w.inBuck, w.nOver, w.len())
	}
	return maxOcc
}

// TestFlowWheelMatchesFlowHeap drives a flowWheel and a flowHeap
// through the same randomized (push, fixMin, pop) sequence over a
// shared key array and demands identical min() answers at every step —
// the wheel's byte-identity claim reduces to this — walking the
// wheel's chains after every step. The last twenty trials collapse the
// population into one bucket and push into the cached minimum's bucket
// between every peek and the operation that follows it.
func TestFlowWheelMatchesFlowHeap(t *testing.T) {
	for trial := 0; trial < 70; trial++ {
		collapsed := trial >= 50
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		n := 1 + rng.Intn(64)
		// Deliberately hostile sizing: tiny widths force overflow and
		// rebase churn, huge widths collapse everything into one bucket.
		span := units.Time(1 + rng.Intn(1_000_000))
		events := int64(1 + rng.Intn(4096))
		keyRange, bumpRange := 2_000_000, 50_000
		if collapsed {
			// One event over a long span clamps the width to
			// wheelMaxWidth; every initial key falls inside bucket 0.
			n = 48 + rng.Intn(17)
			span, events = units.Second, 1
			keyRange, bumpRange = int(wheelMaxWidth), 2_000
		}
		keyH := make([]units.Time, n)
		keyW := make([]units.Time, n)
		h := flowHeap{idx: make([]int32, 0, n), key: keyH}
		w := newFlowWheel(keyW, events, span)
		live := make(map[int32]bool)

		push := func(g int32, at units.Time) {
			keyH[g], keyW[g] = at, at
			h.push(g)
			w.push(g)
			live[g] = true
		}
		absent := func() int32 {
			for c := int32(0); c < int32(n); c++ {
				if !live[c] {
					return c
				}
			}
			return -1
		}
		sameMin := func(step int) int32 {
			gh, gw := h.min(), w.min()
			if gh != gw {
				t.Fatalf("trial %d step %d: min heap=%d@%d wheel=%d@%d",
					trial, step, gh, keyH[gh], gw, keyW[gw])
			}
			return gh
		}
		for g := 0; g < n; g++ {
			if collapsed && g%4 != 3 || !collapsed && rng.Intn(4) > 0 {
				push(int32(g), units.Time(rng.Intn(keyRange)))
			}
		}
		if occ := checkWheelChains(t, &w, live); collapsed && occ < 32 {
			t.Fatalf("trial %d: collapsed wheel's fullest bucket holds %d flows, want >= 32", trial, occ)
		}
		for step := 0; step < 20_000 && h.len() > 0; step++ {
			if h.len() != w.len() {
				t.Fatalf("trial %d step %d: len heap=%d wheel=%d", trial, step, h.len(), w.len())
			}
			gh := sameMin(step)
			if g := absent(); collapsed && g >= 0 {
				// Land in the bucket the cached minimum was found in, on
				// either side of the minimum's key.
				at := w.base + units.Time(w.cachedBucket)*w.width + units.Time(rng.Intn(int(w.width)))
				push(g, at)
				checkWheelChains(t, &w, live)
				gh = sameMin(step)
			}
			switch op := rng.Intn(10); {
			case op < 5: // advance the min's key (the fan-out's hot path)
				bump := units.Time(rng.Intn(bumpRange))
				keyH[gh] += bump
				keyW[gh] += bump
				h.fixMin()
				w.fixMin()
			case op < 8: // retire the min
				h.pop()
				w.pop()
				delete(live, gh)
			default: // push a currently-absent flow, sometimes far away
				g := absent()
				if g < 0 {
					continue
				}
				at := units.Time(rng.Intn(keyRange))
				if rng.Intn(8) == 0 {
					at += 500_000_000 // deep overflow territory
				}
				push(g, at)
			}
			checkWheelChains(t, &w, live)
		}
	}
}

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

// TestFlowWheelMatchesFlowHeap drives a flowWheel and a flowHeap
// through the same randomized (push, fixMin, pop) sequence over a
// shared key array and demands identical min() answers at every step —
// the wheel's byte-identity claim reduces to this.
func TestFlowWheelMatchesFlowHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		n := 1 + rng.Intn(64)
		keyH := make([]units.Time, n)
		keyW := make([]units.Time, n)
		h := flowHeap{idx: make([]int32, 0, n), key: keyH}
		// Deliberately hostile sizing: tiny widths force overflow and
		// rebase churn, huge widths collapse everything into one bucket.
		span := units.Time(1 + rng.Intn(1_000_000))
		events := int64(1 + rng.Intn(4096))
		w := newFlowWheel(keyW, events, span)
		live := make(map[int32]bool)

		push := func(g int32, at units.Time) {
			keyH[g], keyW[g] = at, at
			h.push(g)
			w.push(g)
			live[g] = true
		}
		for g := 0; g < n; g++ {
			if rng.Intn(4) > 0 {
				push(int32(g), units.Time(rng.Intn(2_000_000)))
			}
		}
		for step := 0; step < 20_000 && h.len() > 0; step++ {
			if h.len() != w.len() {
				t.Fatalf("trial %d step %d: len heap=%d wheel=%d", trial, step, h.len(), w.len())
			}
			gh, gw := h.min(), w.min()
			if gh != gw {
				t.Fatalf("trial %d step %d: min heap=%d@%d wheel=%d@%d",
					trial, step, gh, keyH[gh], gw, keyW[gw])
			}
			switch op := rng.Intn(10); {
			case op < 5: // advance the min's key (the fan-out's hot path)
				bump := units.Time(rng.Intn(50_000))
				keyH[gh] += bump
				keyW[gh] += bump
				h.fixMin()
				w.fixMin()
			case op < 8: // retire the min
				h.pop()
				w.pop()
				delete(live, gh)
			default: // push a currently-absent flow, sometimes far away
				var g int32 = -1
				for c := int32(0); c < int32(n); c++ {
					if !live[c] {
						g = c
						break
					}
				}
				if g < 0 {
					continue
				}
				at := units.Time(rng.Intn(2_000_000))
				if rng.Intn(8) == 0 {
					at += 500_000_000 // deep overflow territory
				}
				push(g, at)
			}
		}
	}
}

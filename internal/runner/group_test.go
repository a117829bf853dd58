package runner

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestGroupRunsAllShards(t *testing.T) {
	g := NewGroup()
	var sum atomic.Int64
	for i := 0; i < 8; i++ {
		i := i
		g.Go(i, func() { sum.Add(int64(i)) })
	}
	g.Wait()
	if sum.Load() != 28 {
		t.Errorf("shard sum = %d, want 28", sum.Load())
	}
}

// TestGroupPanicUnblocksSiblings pins the deadlock-avoidance contract:
// a faulting shard closes Quit, a sibling blocked on a channel hand-off
// escapes via the select, and Wait re-panics naming the faulting shard.
func TestGroupPanicUnblocksSiblings(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shard panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "shard 1") {
			t.Errorf("panic value %v does not name the shard", r)
		}
	}()
	g := NewGroup()
	ch := make(chan int) // unbuffered, never read: shard 0 blocks forever
	g.Go(0, func() {
		select {
		case ch <- 1:
		case <-g.Quit():
		}
	})
	g.Go(1, func() { panic("boom") })
	g.Wait()
}

func TestGroupAbort(t *testing.T) {
	g := NewGroup()
	g.Go(0, func() { <-g.Quit() })
	g.abort()
	g.abort() // idempotent
	g.Wait()  // must not panic
}

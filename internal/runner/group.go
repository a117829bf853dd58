package runner

import (
	"fmt"
	"sync"
)

// Group runs the shard workers of ONE simulation job. It is the
// intra-run complement of Map/MapArena: where the pool parallelizes
// across independent grid points, a Group parallelizes inside a single
// run (sharded execution, internal/topology), so it nests freely
// inside a pool worker. Panics in shard goroutines are captured,
// Quit is closed so sibling shards blocked on channel hand-offs can
// bail out, and Wait re-panics on the calling goroutine with the
// lowest faulting shard index attached — the same attribution contract
// MapArena gives job panics.
type Group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  *groupFailure
	quit chan struct{}
	once sync.Once
}

type groupFailure struct {
	shard int
	err   any
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{quit: make(chan struct{})} }

// Quit is closed when any shard panics (or abort is called); shard
// workers must select on it wherever they block on a channel, or a
// faulting sibling would deadlock them.
func (g *Group) Quit() <-chan struct{} { return g.quit }

// abort closes Quit without recording a failure — the orchestrator's
// own early exit path.
func (g *Group) abort() { g.once.Do(func() { close(g.quit) }) }

// Go runs fn as shard worker i on its own goroutine.
func (g *Group) Go(i int, fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.mu.Lock()
				if g.err == nil || i < g.err.shard {
					g.err = &groupFailure{shard: i, err: r}
				}
				g.mu.Unlock()
				g.abort()
			}
		}()
		fn()
	}()
}

// Wait blocks until every shard worker returned, then re-panics with
// the lowest faulting shard attached if any panicked.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.err != nil {
		panic(fmt.Sprintf("runner: shard %d panicked: %v", g.err.shard, g.err.err))
	}
}

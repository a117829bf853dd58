package runner

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// timerFunc adapts a closure to sim.Timer. Tests only: production code
// schedules through long-lived Timer values.
type timerFunc func()

func (f timerFunc) Fire(units.Time) { f() }

func TestMapEmpty(t *testing.T) {
	if got := Map[int](4, nil); len(got) != 0 {
		t.Errorf("Map(nil) = %v", got)
	}
}

func TestMapSerialOrder(t *testing.T) {
	var order []int
	jobs := make([]func() int, 5)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			order = append(order, i)
			return i * i
		}
	}
	got := Map(1, jobs)
	for i, v := range got {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
}

// TestMapOrderedByIndex is the property test of the determinism
// contract: jobs that complete in deliberately scrambled order (later
// indexes finish first) must still land at their own index.
func TestMapOrderedByIndex(t *testing.T) {
	const n = 32
	jobs := make([]func() int, n)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			// Early jobs sleep longest, so completion order is roughly
			// the reverse of index order.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i
		}
	}
	for _, workers := range []int{2, 7, n} {
		got := Map(workers, jobs)
		for i, v := range got {
			if v != i {
				t.Errorf("workers=%d: result[%d] = %d — collected by arrival, not index", workers, i, v)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	jobs := make([]func() int, 24)
	for i := range jobs {
		jobs[i] = func() int {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return 0
		}
	}
	Map(workers, jobs)
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

// TestMapDeterministicAcrossWorkerCounts runs genuinely random-looking
// work — a seeded simulation per job — under several pool sizes and
// demands bit-identical results.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func() []func() uint64 {
		jobs := make([]func() uint64, 16)
		for i := range jobs {
			i := i
			jobs[i] = func() uint64 {
				s := sim.New(uint64(1000 + i))
				var acc uint64
				for k := 0; k < 50; k++ {
					s.AfterTimer(1, timerFunc(func() { acc = acc*31 + s.RNG().Uint64()%997 }))
				}
				s.Run()
				return acc
			}
		}
		return jobs
	}
	ref := Map(1, mk())
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := Map(w, mk())
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: job %d produced %d, serial produced %d", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "job 3") {
			t.Errorf("panic value %v does not name the job", r)
		}
	}()
	jobs := make([]func() int, 8)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			if i == 3 {
				panic("boom")
			}
			return i
		}
	}
	Map(4, jobs)
}

func TestMapPanicPropagatesSerial(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("serial panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "job 1") {
			t.Errorf("serial panic value %v does not name the job", r)
		}
	}()
	Map(1, []func() int{
		func() int { return 0 },
		func() int { panic("boom") },
	})
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("Workers(5) != 5")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Error("Workers(<=0) should default to GOMAXPROCS")
	}
}

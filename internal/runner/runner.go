// Package runner is a deterministic worker-pool executor for
// independent simulation jobs.
//
// Every point of every paper figure is one self-contained run of the
// discrete-event simulator: the job builds its own simulation — on a
// sim.Simulator its worker lends and resets to the job's seed, so with
// its own RNG stream — runs it to completion, and reduces the outcome
// to a small value. Jobs share no mutable state, so they
// can execute on any number of goroutines without changing a single
// bit of any result. The runner exploits that: it fans a job slice out
// across a bounded pool of workers and collects results **by job
// index**, never by completion order, so the output of MapArena is
// byte-for-byte identical whether it ran on one worker or sixty-four.
//
// The experiment layer (internal/experiment) builds every figure
// through MapArena, one arena per worker; cmd/dsbench exposes the
// worker count as -parallel.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount normalizes a requested worker count: n if positive,
// otherwise GOMAXPROCS (the default "use the machine" setting).
func workerCount(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// MapArena runs every job and returns their results indexed exactly
// like jobs, regardless of the order in which workers finish them. At
// most workerCount(workers) jobs execute concurrently; workers <= 1 runs
// the jobs serially on the calling goroutine in index order, which is
// the reference execution the concurrent path must (and does) match.
// Output is therefore byte-identical at every parallelism level
// provided jobs are deterministic functions of their inputs.
//
// newArena is called once per worker goroutine (once total in the
// serial case) and the worker passes its arena to every job it
// executes. An arena therefore never crosses goroutines and never sees
// two jobs concurrently — the contract that lets simulations reuse
// packet and event pools across jobs without any locking. Jobs must
// not let the arena outlive their call, and arena reuse must not leak
// state between jobs (pools hand out zeroed objects).
//
// If a job panics, MapArena stops dispatching further jobs, waits for
// the in-flight ones to drain, and re-panics on the calling goroutine
// with the job index attached, so a crash inside a simulation surfaces
// promptly and is attributable rather than silently swallowed by a
// worker goroutine.
func MapArena[A, T any](workers int, newArena func() A, jobs []func(A) T) []T {
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	w := workerCount(workers)
	if w > len(jobs) {
		w = len(jobs)
	}
	if w <= 1 {
		arena := newArena()
		for i, job := range jobs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						panic(fmt.Sprintf("runner: job %d panicked: %v", i, r))
					}
				}()
				results[i] = job(arena)
			}()
		}
		return results
	}

	type failure struct {
		index int
		err   any
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *failure
		failed   atomic.Bool
	)
	next := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := newArena()
			for i := range next {
				if failed.Load() {
					continue
				}
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							failed.Store(true)
							mu.Lock()
							if firstErr == nil || i < firstErr.index {
								firstErr = &failure{index: i, err: r}
							}
							mu.Unlock()
						}
					}()
					results[i] = jobs[i](arena)
				}(i)
			}
		}()
	}
	for i := range jobs {
		if failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		panic(fmt.Sprintf("runner: job %d panicked: %v", firstErr.index, firstErr.err))
	}
	return results
}

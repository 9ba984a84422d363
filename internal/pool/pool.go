// Package pool is the repository's one worker pool: a bounded set of
// goroutines that evaluates independent tasks by index. Every per-item
// phase of a campaign runs on it — the tester's fault groups, chips and
// sessions, and faultsim's golden traces and detection-matrix items.
//
// The pool holds no state between calls. Each Run starts its own workers
// and waits for them, so a Run nested inside another Run's task cannot
// starve for workers, whatever GOMAXPROCS is.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers sizes a pool for n independent tasks: GOMAXPROCS, capped at n,
// and at least 1.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// Run evaluates fn(i, w) for every i in [0, n) on Workers(n) goroutines
// and returns the results indexed by i, so any aggregation over out is
// independent of scheduling. w is the pool slot running the task: fn may
// keep per-slot scratch, because each slot is one goroutine.
//
// Workers stop claiming indices once ctx is cancelled; tasks already
// running finish. done[i] reports whether fn ran for index i, so with a
// context that is never cancelled every index is done.
//
// A panic in fn is recovered in its worker, and the other workers stop
// claiming indices. Once every worker has returned, Run re-panics on the
// caller's goroutine with the value of the lowest-indexed task that
// panicked, so the caller's own recover sees it.
func Run[T any](ctx context.Context, n int, fn func(i, w int) T) (out []T, done []bool) {
	out = make([]T, n)
	done = make([]bool, n)
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		panicAt = -1
		panicV  any
		wg      sync.WaitGroup
	)
	next.Store(-1)
	task := func(i, w int) {
		defer func() {
			if p := recover(); p != nil {
				stopped.Store(true)
				mu.Lock()
				if panicAt < 0 || i < panicAt {
					panicAt, panicV = i, p
				}
				mu.Unlock()
			}
		}()
		out[i] = fn(i, w)
		done[i] = true
	}
	workers := Workers(n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !stopped.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				task(i, w)
			}
		}()
	}
	wg.Wait()
	if panicAt >= 0 {
		//lint:ignore no-panic re-raises a task's own panic on the caller's goroutine, where the caller's recover expects it
		panic(panicV)
	}
	return out, done
}

package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test body at the given GOMAXPROCS and restores it.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	withProcs(t, 4)
	for _, c := range []struct{ n, want int }{{0, 1}, {1, 1}, {3, 3}, {4, 4}, {100, 4}} {
		if got := Workers(c.n); got != c.want {
			t.Errorf("Workers(%d) = %d at GOMAXPROCS 4, want %d", c.n, got, c.want)
		}
	}
}

// TestRunEveryIndexOnce: every index runs exactly once, on a valid slot,
// and its result lands at its own position.
func TestRunEveryIndexOnce(t *testing.T) {
	const n = 1000
	var runs [n]atomic.Int32
	workers := Workers(n)
	out, done := Run(context.Background(), n, func(i, w int) int {
		runs[i].Add(1)
		if w < 0 || w >= workers {
			t.Errorf("index %d ran on slot %d of %d", i, w, workers)
		}
		return 3 * i
	})
	if len(out) != n || len(done) != n {
		t.Fatalf("got %d results and %d done flags, want %d", len(out), len(done), n)
	}
	for i := range out {
		if runs[i].Load() != 1 || !done[i] || out[i] != 3*i {
			t.Errorf("index %d: ran %d times, done %v, result %d", i, runs[i].Load(), done[i], out[i])
		}
	}
	if out, done := Run(context.Background(), 0, func(i, w int) int { return 1 }); len(out) != 0 || len(done) != 0 {
		t.Errorf("n = 0: %v %v", out, done)
	}
}

// TestRunCancelStopsClaiming: once ctx is cancelled no worker claims
// another index, and done says exactly which indices ran.
func TestRunCancelStopsClaiming(t *testing.T) {
	const n = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [n]atomic.Bool
	// Every task holds its worker until the cancel, which task 0 issues
	// once the other workers hold theirs: the first Workers(n) indices are
	// in flight on distinct workers when it comes, and none after them is
	// ever claimed.
	var started sync.WaitGroup
	started.Add(Workers(n) - 1)
	_, done := Run(ctx, n, func(i, w int) int {
		ran[i].Store(true)
		if i == 0 {
			started.Wait()
			cancel()
		} else {
			started.Done()
		}
		<-ctx.Done()
		return i
	})
	for i := range done {
		if done[i] != ran[i].Load() {
			t.Errorf("index %d: done %v but ran %v", i, done[i], ran[i].Load())
		}
		if want := i < Workers(n); done[i] != want {
			t.Errorf("index %d: done %v, want %v with %d workers", i, done[i], want, Workers(n))
		}
	}

	_, done = Run(ctx, n, func(i, w int) int {
		t.Errorf("index %d ran under a cancelled context", i)
		return i
	})
	for i, d := range done {
		if d {
			t.Fatalf("index %d done under a cancelled context", i)
		}
	}
}

type boom struct{ i int }

// TestRunPanicOnCaller: a panicking task re-panics on the caller with its
// own value, only after every worker has returned — the tasks still running
// when the panic happened have finished by then — and no worker claims
// another index after the panic.
func TestRunPanicOnCaller(t *testing.T) {
	withProcs(t, 4)
	want := &boom{i: 0}
	var started sync.WaitGroup
	started.Add(3)
	panicking := make(chan struct{})
	var finished, late atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != want {
				t.Fatalf("recovered %v, want the task's own panic value %v", p, want)
			}
			if n := finished.Load(); n != 3 {
				t.Errorf("Run re-panicked with %d of the 3 in-flight tasks finished", n)
			}
			if n := late.Load(); n != 0 {
				t.Errorf("%d indices were claimed after the panic", n)
			}
		}()
		Run(context.Background(), 1000, func(i, w int) int {
			switch {
			case i == 0:
				// Tasks 0..3 are each held by their own worker.
				started.Wait()
				close(panicking)
				panic(want)
			case i < 4:
				started.Done()
				<-panicking
				// Outlast the panic's recovery, so this worker looks for
				// its next index only after the pool has stopped.
				time.Sleep(50 * time.Millisecond)
				finished.Add(1)
			default:
				late.Add(1)
			}
			return i
		})
		t.Fatal("Run returned instead of re-panicking")
	}()
}

// TestRunPanicLowestIndex: when several tasks panic, the value re-raised
// is the lowest-indexed one's.
func TestRunPanicLowestIndex(t *testing.T) {
	withProcs(t, 4)
	var all sync.WaitGroup
	all.Add(4)
	defer func() {
		if p, ok := recover().(*boom); !ok || p.i != 0 {
			t.Fatalf("recovered %v, want task 0's panic", p)
		}
	}()
	Run(context.Background(), 4, func(i, w int) int {
		// Every task is claimed before any of them panics.
		all.Done()
		all.Wait()
		panic(&boom{i: i})
	})
	t.Fatal("Run returned instead of re-panicking")
}

// TestRunNestedOneProc: a Run inside a Run task finishes even when the
// outer pool holds the only P.
func TestRunNestedOneProc(t *testing.T) {
	withProcs(t, 1)
	outer, done := Run(context.Background(), 8, func(i, w int) int {
		inner, _ := Run(context.Background(), 16, func(j, v int) int { return i * j })
		s := 0
		for _, x := range inner {
			s += x
		}
		return s
	})
	for i, s := range outer {
		if !done[i] || s != i*120 {
			t.Errorf("outer %d: done %v, sum %d, want %d", i, done[i], s, i*120)
		}
	}
}

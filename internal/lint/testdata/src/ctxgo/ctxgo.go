// Package ctxgo is a fixture for the ctx-goroutine check; the test
// configures runPool as its only approved spawn site, and runPool and the
// pool subpackage's Run as its ctx-required pool helpers.
package ctxgo

import (
	"context"

	"neurotest/internal/lint/testdata/src/ctxgo/pool"
)

// runPool is the approved pool helper: it may spawn, and its recover()
// barrier is what makes the approval defensible.
func runPool(ctx context.Context, work []func()) {
	done := make(chan struct{}, len(work))
	for _, w := range work {
		w := w
		go func() {
			defer func() {
				recover()
				done <- struct{}{}
			}()
			w()
		}()
	}
	for range work {
		select {
		case <-done:
		case <-ctx.Done():
			return
		}
	}
}

// Rogue spawns outside the pool helper.
func Rogue(f func()) {
	go f() // want "go statement outside the approved pool helpers"
}

// rogueInternal shows the rule also binds unexported functions.
func rogueInternal(f func()) {
	go f() // want "go statement outside the approved pool helpers"
}

// Campaign drives the pool but cannot be cancelled.
func Campaign(work []func()) {
	runPool(context.Background(), work) // want "accepts no context.Context"
}

// CampaignContext is the compliant entry point.
func CampaignContext(ctx context.Context, work []func()) {
	runPool(ctx, work)
}

// helper drives the pool unexported: only exported entry points owe their
// callers a context parameter.
func helper(work []func()) {
	runPool(context.Background(), work)
}

// Qualified drives the out-of-package helper through a qualified call.
func Qualified(n int) []int {
	return pool.Run(context.Background(), n, func(i int) int { return i }) // want "drives pool helper pool.Run but accepts no context.Context"
}

// Instantiated drives it through an explicit instantiation.
func Instantiated(n int) []int {
	return pool.Run[int](context.Background(), n, func(i int) int { return i }) // want "drives pool helper pool.Run but accepts no context.Context"
}

// QualifiedContext is the compliant qualified driver.
func QualifiedContext(ctx context.Context, n int) []int {
	return pool.Run[int](ctx, n, func(i int) int { return i })
}

// runner has a method sharing the pool helper's name.
type runner struct{ calls int }

// Run is not the pool helper.
func (r *runner) Run() { r.calls++ }

// SameNamedMethod calls runner.Run: matched by identity, it is no pool
// driver.
func SameNamedMethod() int {
	var x runner
	x.Run()
	return x.calls
}

// SuppressedSpawn documents its exemption.
func SuppressedSpawn(f func()) {
	//lint:ignore ctx-goroutine fixture: documented one-shot spawn
	go f()
}

// NoSpawns is exported, calls no pool helper, and is clean.
func NoSpawns() int {
	_ = helper
	_ = rogueInternal
	return 1
}

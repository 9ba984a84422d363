// Package pool is the ctx-goroutine fixture's out-of-package pool helper:
// the test lists its Run as ctx-required for the ctxgo package by
// qualified name.
package pool

import "context"

// Run evaluates fn for every index in [0, n) until ctx is cancelled.
func Run[T any](ctx context.Context, n int, fn func(i int) T) []T {
	out := make([]T, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		out[i] = fn(i)
	}
	return out
}

// Package lib is the dead-code fixture's library. It lives under internal/,
// so every function and method it declares needs a reference from
// non-test code outside its own body.
package lib

import (
	"fmt"

	"deadcode/internal/store"
)

// Exported is called from the command, a separately type-checked package.
func Exported() int { return helper() }

// helper is called from Exported.
func helper() int { return 1 }

// Unused is referenced by nothing.
func Unused() {} // want `lib\.Unused is referenced by no non-test code`

// unused is referenced by nothing either; being unexported changes nothing.
func unused() {} // want `lib\.unused is referenced by no non-test code`

// Countdown refers only to itself.
func Countdown(n int) int { // want `lib\.Countdown is referenced by no non-test code`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// TestOnly is called from lib_test.go alone.
func TestOnly() {} // want `lib\.TestOnly is referenced by no non-test code`

// T carries the method cases.
type T struct{}

// Method is referenced by nothing.
func (T) Method() {} // want `\(lib\.T\)\.Method is referenced by no non-test code`

// Tick is only ever taken as a method value.
func (t *T) Tick() {}

// Ticker hands out t.Tick as a method value.
func Ticker(t *T) func() { return t.Tick }

// String is reached through fmt.Stringer.
func (T) String() string { return fmt.Sprint("T") }

// Err is an error type.
type Err struct{}

// Error is reached through the predeclared error interface.
func (Err) Error() string { return "err" }

// shape is a fixture-local interface.
type shape interface{ area() float64 }

// square satisfies shape with a value receiver.
type square struct{}

func (square) area() float64 { return 1 }

// circle satisfies shape through its pointer type only.
type circle struct{}

func (*circle) area() float64 { return 3 }

// Sink is satisfied by store.Store, whose Put names the store package's
// own Item type.
type Sink interface{ Put(*store.Item) }

// Map is called through an explicit instantiation.
func Map[E any](xs []E, f func(E) E) []E {
	out := make([]E, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// hooked is referenced by a package-level variable initializer.
func hooked() {}

// Hook is initialised from a function value.
var Hook = hooked

// registered is referenced as a function value from Register's body.
func registered() {}

// Register hands out registered as a function value.
func Register() func() { return registered }

// Suppressed has no callers, and says so.
//
//lint:ignore dead-code fixture: the directive suppresses this finding
func Suppressed() {}

// init runs without a reference.
func init() {}

// Command tool is the dead-code fixture's caller. It lives outside
// internal/: its references count, its own functions are not checked.
package main

import (
	"fmt"

	"deadcode/internal/lib"
)

func main() {
	lib.Ticker(&lib.T{})()
	lib.Register()()
	fmt.Println(lib.Exported(), lib.Map[int]([]int{1}, func(x int) int { return x + 1 }), lib.Hook != nil)
}

// unused is outside internal/: not checked.
func unused() {}

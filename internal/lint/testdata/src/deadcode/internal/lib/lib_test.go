package lib

import "testing"

// TestTestOnly is the only caller of TestOnly: the loader skips test files,
// so this reference does not count.
func TestTestOnly(t *testing.T) { TestOnly() }

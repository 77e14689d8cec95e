package nn

import (
	"os"
	"testing"

	"fedomd/internal/mat"
)

// TestMain turns on the mat pool's debug mode for the whole test binary: a
// buffer returned twice panics, and every unzeroed buffer (each tape op's
// value among them) starts as NaN, so a kernel that leaves an element
// unwritten poisons the loss instead of passing on a stale value.
func TestMain(m *testing.M) {
	mat.SetDebug(true)
	code := m.Run()
	mat.SetDebug(false)
	os.Exit(code)
}

package codec

import (
	"os"
	"testing"

	"fedomd/internal/mat"
)

// TestMain turns on the mat pool's debug mode for the whole test binary: a
// decode buffer returned twice panics, and an output drawn unzeroed starts as
// NaN, so a decoder that reads or skips an element before writing it fails
// here instead of passing on a recycled value.
func TestMain(m *testing.M) {
	mat.SetDebug(true)
	code := m.Run()
	mat.SetDebug(false)
	os.Exit(code)
}

package moments

import (
	"os"
	"testing"

	"fedomd/internal/mat"
)

// TestMain turns on the mat pool's double-put detection for the whole test
// binary: a buffer returned twice panics here instead of corrupting a later
// test's tape.
func TestMain(m *testing.M) {
	mat.SetDebug(true)
	code := m.Run()
	mat.SetDebug(false)
	os.Exit(code)
}

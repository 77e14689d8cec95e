package mat

import (
	"os"
	"testing"
)

// TestMain turns on double-put detection for the whole mat test binary: any
// pool-discipline bug in the package's own tests panics loudly instead of
// corrupting a later test's buffers.
func TestMain(m *testing.M) {
	SetDebug(true)
	code := m.Run()
	SetDebug(false)
	os.Exit(code)
}

func TestDebugDoublePutPanics(t *testing.T) {
	if !DebugEnabled() {
		t.Fatal("debug mode should be on under TestMain")
	}
	m := GetDense(8, 8)
	PutDense(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on the second PutDense of the same buffer")
		}
	}()
	PutDense(m)
}

// TestDebugPutGetPutOK pins that a buffer cycling through the pool is not a
// false positive: Get clears the put-mark, so re-putting the re-acquired
// buffer is legal.
func TestDebugPutGetPutOK(t *testing.T) {
	m := GetDense(8, 8)
	PutDense(m)
	m2 := GetDense(8, 8) // may or may not be the same backing array
	PutDense(m2)
}

// TestDebugOffNoPanic pins that the guard is inert when disabled.
func TestDebugOffNoPanic(t *testing.T) {
	SetDebug(false)
	defer SetDebug(true)
	m := GetDense(8, 8)
	PutDense(m)
	PutDense(m) // corrupting, but the default mode must stay zero-overhead
	// Drain the bucket completely so the aliased copies cannot reach any
	// later test through the pool.
	for pools[poolBucket(64)].Get() != nil {
	}
}

// DebugEnabled reports whether double-put detection is active.
func DebugEnabled() bool { return debugOn.Load() }

package mat

import (
	"math/rand"
	"sync"
	"testing"
)

func TestGetDenseZeroedAfterReuse(t *testing.T) {
	m := GetDense(5, 7)
	if r, c := m.Dims(); r != 5 || c != 7 {
		t.Fatalf("Dims = %d,%d want 5,7", r, c)
	}
	for i := range m.Data() {
		m.Data()[i] = 3.25
	}
	PutDense(m)
	// Same bucket, different shape: the recycled storage must come back zeroed.
	n := GetDense(7, 5)
	for i, v := range n.Data() {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	PutDense(n)
}

func TestPoolRoundTripCounters(t *testing.T) {
	// A Put followed by a same-bucket Get is a hit. Under the race detector
	// sync.Pool deliberately drops a random fraction of Puts, so any single
	// round trip can miss legitimately — retry until the hit lands.
	h0, _, _ := PoolStats()
	var m *Dense
	for try := 0; ; try++ {
		warm := GetDense(16, 16)
		PutDense(warm)
		m = GetDense(16, 16)
		if h1, _, _ := PoolStats(); h1 > h0 {
			break
		}
		if try == 200 {
			t.Fatal("no pool hit after 200 put/get round trips")
		}
		PutDense(m)
	}
	// The put counter tracks buffers accepted by PutDense, before sync.Pool
	// can drop them, so it moves deterministically.
	_, _, p0 := PoolStats()
	PutDense(m)
	if _, _, p1 := PoolStats(); p1 != p0+1 {
		t.Fatalf("puts %d -> %d, want +1", p0, p1)
	}
}

func TestPutDenseDropsForeignBuffers(t *testing.T) {
	_, _, p0 := PoolStats()
	// cap 9 is not a power of two: New-allocated storage is never pooled.
	PutDense(New(3, 3))
	// Oversized buffers are also dropped.
	PutDense(&Dense{rows: 1, cols: 1 << 23, data: make([]float64, 1<<23)})
	PutDense(nil)
	if _, _, p1 := PoolStats(); p1 != p0 {
		t.Fatalf("puts moved %d -> %d for unpoolable buffers", p0, p1)
	}
}

// TestPoolConcurrent exercises concurrent Get/Put traffic; run with -race it
// proves vended buffers are never shared between goroutines.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				r, c := 1+rng.Intn(20), 1+rng.Intn(20)
				m := GetDense(r, c)
				for j := range m.Data() {
					m.Data()[j] = float64(seed)
				}
				for _, v := range m.Data() {
					if v != float64(seed) {
						t.Errorf("buffer shared across goroutines: %v", v)
						return
					}
				}
				PutDense(m)
			}
		}(int64(g))
	}
	wg.Wait()
}

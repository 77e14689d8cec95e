package mat

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"fedomd/internal/telemetry"
)

// Buffer pooling: training steps churn through forward values, gradients and
// backward temporaries whose shapes repeat exactly from step to step. GetDense
// and PutDense recycle that storage through size-bucketed sync.Pools so a
// steady-state step allocates (almost) nothing. Buckets are powers of two of
// the element count; a matrix drawn from bucket b owns a backing slice of
// capacity exactly 1<<b, which lets any shape with rows*cols ≤ 1<<b reuse it.
//
// Ownership contract: a caller that Puts a matrix must hold no further
// references to it (or to slices returned by Data()/Row()); the next Get from
// the same bucket may hand the storage to unrelated code. The ad.Tape is the
// main client and enforces this by only releasing buffers it allocated itself,
// after the optimiser step that consumes them.

const (
	// minPoolBits is the smallest bucket (64 floats = 512 B); tinier
	// requests are rounded up so scalar loss nodes recycle too.
	minPoolBits = 6
	// maxPoolBits caps pooled buffers at 1<<22 floats (32 MiB); anything
	// larger is rare enough that holding it in a pool would just pin memory.
	maxPoolBits = 22
)

// Process-global telemetry: hit/miss rates are the health signal of the
// memory-reuse layer (a miss is a fresh allocation, a hit is storage
// recycled from a previous step).
var (
	poolHits   = telemetry.NewCounter("mat/pool_hits")
	poolMisses = telemetry.NewCounter("mat/pool_misses")
	poolPuts   = telemetry.NewCounter("mat/pool_puts")
)

var pools [maxPoolBits + 1]sync.Pool

// Debug double-put detection. A buffer put twice sits in the pool twice, so
// two later GetDense calls hand the same storage to unrelated code — the
// worst kind of corruption, surfacing far from the bug. Under SetDebug(true)
// PutDense records the identity (first-element pointer) of every pooled
// backing array and panics at the second put; GetDense and GetDenseUnzeroed
// clear the mark when the buffer leaves the pool, and GetDenseUnzeroed fills
// its buffer with NaN. The bookkeeping takes a mutex per Get/Put, so it is
// off by default and enabled in tests (and by fedomdvet's poolpair analyzer
// development loop).
var (
	debugOn   atomic.Bool
	debugMu   sync.Mutex
	debugPuts = map[*float64]bool{}
)

// SetDebug toggles double-put detection and GetDenseUnzeroed's NaN fill.
// Turning it off (or on) resets the bookkeeping. Note the mark map
// deliberately keeps pooled arrays reachable; enable only in tests and
// debugging sessions.
func SetDebug(on bool) {
	debugMu.Lock()
	defer debugMu.Unlock()
	debugOn.Store(on)
	clear(debugPuts)
}

// poolBucket returns the bucket index for n floats, or -1 if n is unpoolable.
func poolBucket(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minPoolBits {
		b = minPoolBits
	}
	if b > maxPoolBits {
		return -1
	}
	return b
}

// GetDense returns a zeroed r×c matrix, recycling pooled storage when a
// suitable buffer is available. The caller owns the result until it passes it
// to PutDense (or drops it for the GC, which is always safe).
func GetDense(r, c int) *Dense {
	d, recycled := getDense(r, c)
	if recycled {
		clear(d.data)
	}
	return d
}

// GetDenseUnzeroed is GetDense for a caller that writes every element before
// it reads any: recycled storage keeps whatever its last owner left in it.
// Under SetDebug(true) every element starts as NaN instead, so a kernel that
// reads an element before writing it fails its tests loudly rather than
// passing on a stale value or a lucky zero.
func GetDenseUnzeroed(r, c int) *Dense {
	d, _ := getDense(r, c)
	if debugOn.Load() {
		nan := math.NaN()
		for i := range d.data {
			d.data[i] = nan
		}
	}
	return d
}

// getDense returns an r×c matrix and whether its storage came from the pool
// (and so holds a previous owner's values); fresh storage is zeroed.
func getDense(r, c int) (*Dense, bool) {
	n := r * c
	b := poolBucket(n)
	if b < 0 {
		return New(r, c), false
	}
	if v := pools[b].Get(); v != nil {
		poolHits.Add(1)
		d := v.(*Dense)
		if debugOn.Load() {
			debugMu.Lock()
			delete(debugPuts, &d.data[:1][0])
			debugMu.Unlock()
		}
		d.rows, d.cols = r, c
		d.data = d.data[:n]
		return d, true
	}
	poolMisses.Add(1)
	return &Dense{rows: r, cols: c, data: make([]float64, n, 1<<b)}, false
}

// PutDense returns m's storage to the pool. m must not be used afterwards —
// neither the matrix nor any slice previously obtained from Data() or Row().
// Matrices whose backing capacity is not an exact bucket size (anything not
// allocated by GetDense, in practice) are silently dropped for the GC, so
// PutDense is safe to call on any matrix the caller owns. nil is ignored.
func PutDense(m *Dense) {
	if m == nil {
		return
	}
	n := cap(m.data)
	if n == 0 || n&(n-1) != 0 {
		return // not a pool-shaped buffer
	}
	b := bits.Len(uint(n)) - 1
	if b < minPoolBits || b > maxPoolBits {
		return
	}
	if debugOn.Load() {
		p := &m.data[:1][0]
		debugMu.Lock()
		if debugPuts[p] {
			debugMu.Unlock()
			panic("mat: PutDense called twice on the same backing array (double put)")
		}
		debugPuts[p] = true
		debugMu.Unlock()
	}
	poolPuts.Add(1)
	pools[b].Put(m)
}

// PoolStats snapshots the pool counters (hits, misses, puts) — a convenience
// for tests and reports on top of the telemetry registry.
func PoolStats() (hits, misses, puts int64) {
	return poolHits.Value(), poolMisses.Value(), poolPuts.Value()
}

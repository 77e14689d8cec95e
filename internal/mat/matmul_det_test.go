package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// The determinism suite pins the core kernel contract: for any worker count,
// a parallel kernel's output is bit-identical to its single-participant run.
// Shapes are chosen to cross parallelThreshold (so the pool actually
// engages) and to exercise ragged tiles on every edge (rows, cols and inner
// dimension not multiples of the tile sizes or k-blocks).

type mmCase struct {
	name string
	run  func(a, b *Dense) *Dense
	dims func(m, n, p int) (ar, ac, br, bc int)
}

var mmCases = []mmCase{
	{"MatMulInto", func(a, b *Dense) *Dense {
		out := New(a.Rows(), b.Cols())
		MatMulInto(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return m, n, n, p }},
	{"MatMulAddInto", func(a, b *Dense) *Dense {
		out := New(a.Rows(), b.Cols())
		for i := range out.data {
			out.data[i] = 0.5
		}
		MatMulAddInto(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return m, n, n, p }},
	{"MatMulT1Into", func(a, b *Dense) *Dense {
		out := New(a.Cols(), b.Cols())
		MatMulT1Into(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return n, m, n, p }},
	{"MatMulT1AddInto", func(a, b *Dense) *Dense {
		out := New(a.Cols(), b.Cols())
		for i := range out.data {
			out.data[i] = -0.25
		}
		MatMulT1AddInto(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return n, m, n, p }},
	{"MatMulT2Into", func(a, b *Dense) *Dense {
		out := New(a.Rows(), b.Rows())
		MatMulT2Into(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return m, n, p, n }},
	{"MatMulT2AddInto", func(a, b *Dense) *Dense {
		out := New(a.Rows(), b.Rows())
		for i := range out.data {
			out.data[i] = 1.25
		}
		MatMulT2AddInto(out, a, b)
		return out
	}, func(m, n, p int) (int, int, int, int) { return m, n, p, n }},
}

// mmShapes mixes tile-aligned and ragged shapes; all are large enough that
// m*n*p clears parallelThreshold.
var mmShapes = [][3]int{
	{64, 64, 64},
	{61, 67, 59},
	{128, 300, 37},
	{37, 513, 130},
	{133, 41, 259},
}

func TestMatMulBitIdenticalAcrossWorkerCounts(t *testing.T) {
	defer SetWorkers(0)
	for _, tc := range mmCases {
		for _, sh := range mmShapes {
			m, n, p := sh[0], sh[1], sh[2]
			ar, ac, br, bc := tc.dims(m, n, p)
			rng := rand.New(rand.NewSource(int64(m*31 + n*7 + p)))
			a := randDense(ar, ac, rng)
			b := randDense(br, bc, rng)

			SetWorkers(1)
			ref := tc.run(a, b)
			for _, w := range workerCounts()[1:] {
				SetWorkers(w)
				got := tc.run(a, b)
				for i := range ref.data {
					if got.data[i] != ref.data[i] {
						t.Fatalf("%s %dx%dx%d workers=%d: element %d = %x, serial %x",
							tc.name, m, n, p, w, i, got.data[i], ref.data[i])
					}
				}
			}
		}
	}
}

// TestMatMulRowIndependentOfBatch pins that a row of a·b does not depend on
// which other rows share the call: every row of a 1-, 2-, 3-, 5- and 7-row
// product must equal, bit for bit, that row of the full product. Serving
// relies on it — a single-node query must return the row the full-table
// sweep computes. Shapes are ragged in every dimension, one with an inner
// dimension past kcBlock.
func TestMatMulRowIndependentOfBatch(t *testing.T) {
	for _, sh := range [][3]int{{23, 37, 13}, {29, 300, 19}, {11, 6, 3}} {
		m, n, p := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(int64(m*n + p)))
		a := randDense(m, n, rng)
		b := randDense(n, p, rng)
		full := MatMul(a, b)
		for _, rows := range []int{1, 2, 3, 5, 7} {
			for start := 0; start+rows <= m; start++ {
				idx := make([]int, rows)
				for i := range idx {
					idx[i] = start + i
				}
				got := MatMul(a.SelectRows(idx), b)
				for i, r := range idx {
					for j := 0; j < p; j++ {
						if got.At(i, j) != full.At(r, j) {
							t.Fatalf("%dx%dx%d: row %d of a %d-row product, column %d = %x, full product %x",
								m, n, p, r, rows, j, got.At(i, j), full.At(r, j))
						}
					}
				}
			}
		}
	}
}

// TestMatMulBlockedMatchesSeedReference checks the blocked/SIMD kernels
// against the seed ikj kernel numerically (they reorder and fuse floating
// point, so equality is approximate but tight).
func TestMatMulBlockedMatchesSeedReference(t *testing.T) {
	for _, sh := range mmShapes {
		m, n, p := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(int64(m + n + p)))
		a := randDense(m, n, rng)
		b := randDense(n, p, rng)
		want := MatMulSerial(a, b)
		got := MatMul(a, b)
		for i := range want.data {
			d := got.data[i] - want.data[i]
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("%dx%dx%d: element %d = %g, seed %g", m, n, p, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestMatMulAccumFoldsZeroing pins the satellite fix: the non-accumulating
// kernels must fully overwrite stale output content (the zeroing is folded
// into the first k-block, not a separate traversal).
func TestMatMulAccumFoldsZeroing(t *testing.T) {
	for _, sh := range mmShapes[:2] {
		m, n, p := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(9))
		a := randDense(m, n, rng)
		b := randDense(n, p, rng)

		clean := New(m, p)
		MatMulInto(clean, a, b)
		dirty := New(m, p)
		for i := range dirty.data {
			dirty.data[i] = 1e30
		}
		MatMulInto(dirty, a, b)
		for i := range clean.data {
			if dirty.data[i] != clean.data[i] {
				t.Fatalf("MatMulInto %v: stale content leaked into element %d", sh, i)
			}
		}

		cleanT1 := New(n, p)
		a2 := randDense(m, n, rng)
		b2 := randDense(m, p, rng)
		MatMulT1Into(cleanT1, a2, b2)
		dirtyT1 := New(n, p)
		for i := range dirtyT1.data {
			dirtyT1.data[i] = -1e30
		}
		MatMulT1Into(dirtyT1, a2, b2)
		for i := range cleanT1.data {
			if dirtyT1.data[i] != cleanT1.data[i] {
				t.Fatalf("MatMulT1Into %v: stale content leaked into element %d", sh, i)
			}
		}
	}
}

// TestMatMulZeroInnerDim pins the n==0 edge: out must be zeroed (not left
// stale) for the Into kernels and untouched for the AddInto kernels.
func TestMatMulZeroInnerDim(t *testing.T) {
	a := New(5, 0)
	b := New(0, 7)
	out := New(5, 7)
	for i := range out.data {
		out.data[i] = 3
	}
	MatMulInto(out, a, b)
	for i := range out.data {
		if out.data[i] != 0 {
			t.Fatalf("MatMulInto with k=0: element %d = %g, want 0", i, out.data[i])
		}
	}
	for i := range out.data {
		out.data[i] = 3
	}
	MatMulAddInto(out, a, b)
	for i := range out.data {
		if out.data[i] != 3 {
			t.Fatalf("MatMulAddInto with k=0: element %d = %g, want 3", i, out.data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	a, b := New(3, 4), New(5, 6)
	mustPanic("MatMul", func() { MatMul(a, b) })
	mustPanic("MatMulInto", func() { MatMulInto(New(3, 6), a, b) })
	mustPanic("MatMulT1Into shape", func() { MatMulT1Into(New(9, 9), New(5, 4), New(5, 6)) })
	mustPanic("MatMulT2Into", func() { MatMulT2Into(New(3, 5), a, b) })
}

func BenchmarkMatMulWorkerGrid(b *testing.B) {
	defer SetWorkers(0)
	n := 512
	rng := rand.New(rand.NewSource(1))
	x := randDense(n, n, rng)
	y := randDense(n, n, rng)
	out := New(n, n)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			SetWorkers(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

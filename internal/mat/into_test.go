package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dirty returns an r×c matrix pre-filled with garbage, to prove the Into
// kernels fully overwrite (or, for Add variants, correctly accumulate into)
// their output.
func dirty(r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data() {
		m.Data()[i] = 1e9
	}
	return m
}

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func wantClose(t *testing.T, got, want *Dense, op string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: dims %dx%d want %dx%d", op, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range got.Data() {
		if math.Abs(v-want.Data()[i]) > 1e-12 {
			t.Fatalf("%s: element %d = %v want %v", op, i, v, want.Data()[i])
		}
	}
}

func TestMatMulIntoMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 7, 5), randMat(rng, 5, 9)
	want := MatMulSerial(a, b)

	out := dirty(7, 9)
	MatMulInto(out, a, b)
	wantClose(t, out, want, "MatMulInto")

	// AddInto accumulates: base + a·b.
	base := randMat(rng, 7, 9)
	accum := base.Clone()
	MatMulAddInto(accum, a, b)
	wantClose(t, accum, Add(base, want), "MatMulAddInto")
}

func TestMatMulT1IntoMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 6, 4), randMat(rng, 6, 8)
	want := MatMulT1(a, b) // aᵀ·b: 4x8

	out := dirty(4, 8)
	MatMulT1Into(out, a, b)
	wantClose(t, out, want, "MatMulT1Into")

	base := randMat(rng, 4, 8)
	accum := base.Clone()
	MatMulT1AddInto(accum, a, b)
	wantClose(t, accum, Add(base, want), "MatMulT1AddInto")
}

func TestMatMulT2IntoMatchesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 6, 5), randMat(rng, 8, 5)
	want := MatMulT2(a, b) // a·bᵀ: 6x8

	out := dirty(6, 8)
	MatMulT2Into(out, a, b)
	wantClose(t, out, want, "MatMulT2Into")

	base := randMat(rng, 6, 8)
	accum := base.Clone()
	MatMulT2AddInto(accum, a, b)
	wantClose(t, accum, Add(base, want), "MatMulT2AddInto")
}

func TestMatMulIntoShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"out-shape": func() { MatMulInto(New(2, 2), New(2, 3), New(3, 4)) },
		"inner-dim": func() { MatMulInto(New(2, 4), New(2, 3), New(2, 4)) },
		"t1-shape":  func() { MatMulT1Into(New(1, 1), New(2, 3), New(2, 4)) },
		"t2-shape":  func() { MatMulT2Into(New(1, 1), New(2, 3), New(4, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestElementwiseIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(rng, 5, 6), randMat(rng, 5, 6)

	out := dirty(5, 6)
	AddInto(out, a, b)
	wantClose(t, out, Add(a, b), "AddInto")

	SubInto(out, a, b)
	wantClose(t, out, Sub(a, b), "SubInto")

	MulElemInto(out, a, b)
	wantClose(t, out, MulElem(a, b), "MulElemInto")

	base := randMat(rng, 5, 6)
	accum := base.Clone()
	MulElemAddInto(accum, a, b)
	wantClose(t, accum, Add(base, MulElem(a, b)), "MulElemAddInto")

	ScaleInto(out, -2.5, a)
	wantClose(t, out, Scale(-2.5, a), "ScaleInto")

	ApplyInto(out, a, math.Exp)
	wantClose(t, out, Apply(a, math.Exp), "ApplyInto")

	// ApplyInto may alias its operand.
	alias := a.Clone()
	ApplyInto(alias, alias, math.Exp)
	wantClose(t, alias, Apply(a, math.Exp), "ApplyInto-aliased")

	PowElemInto(out, a, 3)
	wantClose(t, out, PowElem(a, 3), "PowElemInto")
}

func TestRowVecIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, v := randMat(rng, 4, 7), randMat(rng, 1, 7)

	out := dirty(4, 7)
	AddRowVecInto(out, a, v)
	wantClose(t, out, AddRowVec(a, v), "AddRowVecInto")

	SubRowVecInto(out, a, v)
	wantClose(t, out, SubRowVec(a, v), "SubRowVecInto")

	// AXPYRowBroadcast: every row += alpha·v.
	m := randMat(rng, 4, 7)
	want := m.Clone()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			want.Set(i, j, want.At(i, j)+0.5*v.At(0, j))
		}
	}
	m.AXPYRowBroadcast(0.5, v)
	wantClose(t, m, want, "AXPYRowBroadcast")
}

func TestReductionIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 9, 4)

	out := dirty(1, 4)
	MeanRowsInto(out, a)
	wantClose(t, out, MeanRows(a), "MeanRowsInto")

	// SumRowsAXPY: out += alpha·colsum(a).
	base := randMat(rng, 1, 4)
	accum := base.Clone()
	SumRowsAXPY(accum, -1, a)
	wantClose(t, accum, Add(base, Scale(-1, SumRows(a))), "SumRowsAXPY")
}

func TestSelectRowsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 8, 3)
	idx := []int{5, 0, 5, 2}
	out := dirty(len(idx), 3)
	a.SelectRowsInto(out, idx)
	wantClose(t, out, a.SelectRows(idx), "SelectRowsInto")
}

// MatMulAddInto computes out += a·b (fused accumulation, no temporary).
// Shape rules match MatMulInto.
func MatMulAddInto(out, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMulAddInto inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	mustOutShape(out, a.rows, b.cols, "MatMulAddInto")
	matMulDispatch(out, a, b, true)
}

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

	base := randMat(rng, 5, 6)
	accum := base.Clone()
	MulElemAddInto(accum, a, b)
	wantClose(t, accum, Add(base, MulElem(a, b)), "MulElemAddInto")

	ScaleInto(out, -2.5, a)
	wantClose(t, out, Scale(-2.5, a), "ScaleInto")
}

func TestRowVecIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, v := randMat(rng, 4, 7), randMat(rng, 1, 7)

	out := dirty(4, 7)
	AddRowVecInto(out, a, v)
	wantClose(t, out, AddRowVec(a, v), "AddRowVecInto")

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

	// CentralMomentsInto: out[k] = colmean((a − mean)^(k+2)).
	mean := randMat(rng, 1, 4)
	moms := []*Dense{dirty(1, 4), dirty(1, 4), dirty(1, 4)}
	CentralMomentsInto(moms, a, mean)
	for k, m := range moms {
		want := MeanRows(Apply(SubRowVec(a, mean), func(x float64) float64 { return math.Pow(x, float64(k+2)) }))
		wantClose(t, m, want, fmt.Sprintf("CentralMomentsInto order %d", k+2))
	}
	empty := []*Dense{dirty(1, 4)}
	CentralMomentsInto(empty, New(0, 4), mean)
	wantClose(t, empty[0], New(1, 4), "CentralMomentsInto on 0 rows")
}

func TestSelectRowsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 8, 3)
	idx := []int{5, 0, 5, 2}
	out := dirty(len(idx), 3)
	a.SelectRowsInto(out, idx)
	wantClose(t, out, a.SelectRows(idx), "SelectRowsInto")
}

// MatMulAddInto computes out += a·b through a pooled temporary. Shape rules
// match MatMulInto.
func MatMulAddInto(out, a, b *Dense) {
	tmp := GetDense(out.rows, out.cols)
	MatMulInto(tmp, a, b)
	out.AddInPlace(tmp)
	PutDense(tmp)
}

// edgeMat returns an r×c matrix of Gaussian values, negatives among them,
// with −0 at every seventh element and one special value in each of the
// columns 0, 1, 2, 3 and 4 mod 8: NaN in row 3, +Inf in row 4, −Inf in row
// 5, −1e70 (its fifth power overflows) in row 6 and +Inf in row 0. The other
// columns stay finite.
func edgeMat(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	special := map[[2]int]float64{{3, 0}: math.NaN(), {4, 1}: math.Inf(1), {5, 2}: math.Inf(-1),
		{6, 3}: -1e70, {0, 4}: math.Inf(1)}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v, ok := special[[2]int{i, j % 8}]
			switch {
			case ok:
			case (i*c+j)%7 == 0:
				v = math.Copysign(0, -1)
			default:
				v = 3 * rng.NormFloat64()
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// sameFloats reports the first index where got and want differ in bits,
// counting any two NaNs as equal (their payloads depend on operand order
// within a commutative add), or -1.
func sameFloats(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// TestCentralMomentsFourOrdersMatchGeneric pins the unrolled K=5 ladder
// (four outputs) to the generic order loop bit for bit, over inputs and
// means carrying NaN, ±Inf, −0 and negatives.
func TestCentralMomentsFourOrdersMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 903} {
		for _, cols := range []int{1, 7, 64} {
			a, mean := edgeMat(rng, n, cols), edgeMat(rng, 1, cols)
			got := []*Dense{dirty(1, cols), dirty(1, cols), dirty(1, cols), dirty(1, cols)}
			CentralMomentsInto(got, a, mean)
			want := []*Dense{New(1, cols), New(1, cols), New(1, cols), New(1, cols)}
			centralMomentsGeneric(want, a, mean.data)
			for _, o := range want {
				for j := range o.data {
					if n > 0 {
						o.data[j] *= 1 / float64(n)
					}
				}
			}
			for k := range want {
				if i := sameFloats(got[k].data, want[k].data); i >= 0 {
					t.Fatalf("n%d/cols%d order %d [%d]: unrolled %v, generic %v", n, cols, k+2, i, got[k].data[i], want[k].data[i])
				}
			}
		}
	}
}

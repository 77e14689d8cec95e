package mat

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	a.mustSameShape(b, "Add")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Dense) *Dense {
	a.mustSameShape(b, "Sub")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

// AddInPlace computes m += b in place.
func (m *Dense) AddInPlace(b *Dense) {
	m.mustSameShape(b, "AddInPlace")
	for i := range m.data {
		m.data[i] += b.data[i]
	}
}

// SubInPlace computes m -= b in place.
func (m *Dense) SubInPlace(b *Dense) {
	m.mustSameShape(b, "SubInPlace")
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
}

// ScaleInPlace computes m *= s in place.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AXPY computes m += alpha*b in place (the BLAS axpy update). b must not
// alias m (enforced by fedomdvet's intoalias analyzer); the contract keeps
// the loop free to be blocked or vectorized.
func (m *Dense) AXPY(alpha float64, b *Dense) {
	m.mustSameShape(b, "AXPY")
	for i := range m.data {
		m.data[i] += alpha * b.data[i]
	}
}

// Apply returns a new matrix with f applied to every element of a.
func Apply(a *Dense, f func(float64) float64) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

// SubRowVec returns a - v broadcast over rows, where v is 1×c.
func SubRowVec(a, v *Dense) *Dense {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: SubRowVec wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x - v.data[j]
		}
	}
	return out
}

// MeanRows returns the 1×c column-wise mean of a. A 0-row input yields zeros.
func MeanRows(a *Dense) *Dense {
	out := New(1, a.cols)
	if a.rows == 0 {
		return out
	}
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.data[j] += v
		}
	}
	inv := 1 / float64(a.rows)
	for j := range out.data {
		out.data[j] *= inv
	}
	return out
}

// Sum returns the sum of every element of a.
func Sum(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v
	}
	return s
}

// Max returns the largest element of a; -Inf for an empty matrix.
func Max(a *Dense) float64 {
	m := math.Inf(-1)
	for _, v := range a.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element of a; +Inf for an empty matrix.
func Min(a *Dense) float64 {
	m := math.Inf(1)
	for _, v := range a.data {
		if v < m {
			m = v
		}
	}
	return m
}

// FrobNorm returns the Frobenius norm ‖a‖_F.
func FrobNorm(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobNormSq returns ‖a‖²_F.
func FrobNormSq(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return s
}

// --- *Into variants: results land in caller-owned (typically pooled)
// storage. Each panics on a shape mismatch; out must not alias the inputs
// unless noted. Fused *AddInto kernels accumulate without a temporary, which
// is what lets backward passes write straight into gradient buffers. ---

// AddInto computes out = a + b.
func AddInto(out, a, b *Dense) {
	a.mustSameShape(b, "AddInto")
	out.mustSameShape(a, "AddInto")
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
}

// SubInto computes out = a - b.
func SubInto(out, a, b *Dense) {
	a.mustSameShape(b, "SubInto")
	out.mustSameShape(a, "SubInto")
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
}

// MulElemInto computes out = a ⊙ b.
func MulElemInto(out, a, b *Dense) {
	a.mustSameShape(b, "MulElemInto")
	out.mustSameShape(a, "MulElemInto")
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
}

// MulElemAddInto computes out += a ⊙ b — the fused Hadamard accumulation the
// Mul/Dropout backward passes use instead of materialising the product.
func MulElemAddInto(out, a, b *Dense) {
	a.mustSameShape(b, "MulElemAddInto")
	out.mustSameShape(a, "MulElemAddInto")
	for i, v := range a.data {
		out.data[i] += v * b.data[i]
	}
}

// ScaleInto computes out = s·a.
func ScaleInto(out *Dense, s float64, a *Dense) {
	out.mustSameShape(a, "ScaleInto")
	for i, v := range a.data {
		out.data[i] = s * v
	}
}

// ApplyInto computes out = f(a) element-wise. out may alias a.
func ApplyInto(out, a *Dense, f func(float64) float64) {
	out.mustSameShape(a, "ApplyInto")
	for i, v := range a.data {
		out.data[i] = f(v)
	}
}

// AddRowVecInto computes out = a + v broadcast over rows (v is 1×c).
func AddRowVecInto(out, a, v *Dense) {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: AddRowVecInto wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out.mustSameShape(a, "AddRowVecInto")
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x + v.data[j]
		}
	}
}

// AXPYRowBroadcast computes m[i,:] += alpha·v for every row i, where v is
// 1×c — the fused MeanRows/broadcast backward update. v must not alias m.
func (m *Dense) AXPYRowBroadcast(alpha float64, v *Dense) {
	if v.rows != 1 || v.cols != m.cols {
		panic(fmt.Sprintf("mat: AXPYRowBroadcast wants 1x%d vector, got %dx%d", m.cols, v.rows, v.cols))
	}
	for i := 0; i < m.rows; i++ {
		axpyRow(m.Row(i), alpha, v.data)
	}
}

// MeanRowsInto computes the 1×c column-wise mean of a into out. A 0-row
// input yields zeros.
func MeanRowsInto(out, a *Dense) {
	if out.rows != 1 || out.cols != a.cols {
		panic(fmt.Sprintf("mat: MeanRowsInto wants 1x%d output, got %dx%d", a.cols, out.rows, out.cols))
	}
	out.Zero()
	if a.rows == 0 {
		return
	}
	for i := 0; i < a.rows; i++ {
		axpyRow(out.data, 1, a.Row(i))
	}
	inv := 1 / float64(a.rows)
	for j := range out.data {
		out.data[j] *= inv
	}
}

// SumRowsAXPY computes out += alpha·colsum(a) with out a 1×c vector — the
// fused bias-gradient update of the row-broadcast ops.
func SumRowsAXPY(out *Dense, alpha float64, a *Dense) {
	if out.rows != 1 || out.cols != a.cols {
		panic(fmt.Sprintf("mat: SumRowsAXPY wants 1x%d output, got %dx%d", a.cols, out.rows, out.cols))
	}
	for i := 0; i < a.rows; i++ {
		axpyRow(out.data, alpha, a.Row(i))
	}
}

// CentralMomentsInto computes the column-wise central moments of a around
// the 1×c row vector mean: out[k] = E((a − mean)^(k+2)), every order in one
// sweep over a with no a-sized temporary. Each element's running product
// feeds one accumulator per order; the products multiply left to right and
// the rows add in order, so out[k] is bit-identical to the column mean of
// the (k+2)-th power taken by repeated multiplication, and negative bases
// keep their sign in odd orders. A 0-row a yields zeros. Every out[k] must
// be 1×c and must not alias a or mean.
func CentralMomentsInto(out []*Dense, a, mean *Dense) {
	if mean.rows != 1 || mean.cols != a.cols {
		panic(fmt.Sprintf("mat: CentralMomentsInto wants 1x%d mean, got %dx%d", a.cols, mean.rows, mean.cols))
	}
	for _, o := range out {
		if o.rows != 1 || o.cols != a.cols {
			panic(fmt.Sprintf("mat: CentralMomentsInto wants 1x%d outputs, got %dx%d", a.cols, o.rows, o.cols))
		}
		o.Zero()
	}
	for i := 0; i < a.rows; i++ {
		for j, x := range a.Row(i) {
			c := x - mean.data[j]
			p := c
			for _, o := range out {
				// The conversion rounds the product before it is added, so
				// no platform fuses the pair into one multiply-add.
				p = float64(p * c)
				o.data[j] += p
			}
		}
	}
	if a.rows == 0 {
		return
	}
	inv := 1 / float64(a.rows)
	for _, o := range out {
		for j := range o.data {
			o.data[j] *= inv
		}
	}
}

// SelectRowsInto copies m's idx[i]-th row into out's i-th row.
func (m *Dense) SelectRowsInto(out *Dense, idx []int) {
	if out.rows != len(idx) || out.cols != m.cols {
		panic(fmt.Sprintf("mat: SelectRowsInto output %dx%d, want %dx%d", out.rows, out.cols, len(idx), m.cols))
	}
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
}

// ArgmaxRows returns, for each row, the index of its largest element.
func ArgmaxRows(a *Dense) []int {
	out := make([]int, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

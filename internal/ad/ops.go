package ad

import (
	"fmt"
	"math"
	"math/rand"

	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// Backward closures accumulate directly into the input nodes' gradient
// buffers via the fused *AddInto / AXPY kernels in mat and sparse — no
// backward op materialises a full-size temporary. grad() hands out a zeroed
// pool buffer on first touch, so "accumulate" and "initialise" are the same
// write.

// MatMul records c = a·b.
// Gradients: ∂L/∂a = ∂L/∂c · bᵀ, ∂L/∂b = aᵀ · ∂L/∂c.
func (t *Tape) MatMul(a, b *Node) *Node {
	if a.Value.Cols() != b.Value.Rows() {
		panic(fmt.Sprintf("ad: MatMul inner dimension mismatch %dx%d · %dx%d",
			a.Value.Rows(), a.Value.Cols(), b.Value.Rows(), b.Value.Cols()))
	}
	out := t.op(a.Value.Rows(), b.Value.Cols())
	mat.MatMulInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		mat.MatMulT2AddInto(a.grad(), out.Grad, b.Value)
		mat.MatMulT1AddInto(b.grad(), a.Value, out.Grad)
	}
	return out
}

// SpMM records c = S·x for a constant sparse operator S (the graph
// propagation matrix). Gradient: ∂L/∂x = Sᵀ·∂L/∂c.
func (t *Tape) SpMM(s *sparse.CSR, x *Node) *Node {
	out := t.op(s.Rows(), x.Value.Cols())
	s.MulDenseInto(out.Value, x.Value)
	out.backward = func() {
		s.TMulDenseAddInto(x.grad(), out.Grad)
	}
	return out
}

// Add records c = a + b element-wise.
func (t *Tape) Add(a, b *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.AddInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		a.grad().AddInPlace(out.Grad)
		b.grad().AddInPlace(out.Grad)
	}
	return out
}

// Sub records c = a − b element-wise. The backward pass subtracts the
// upstream gradient in place — no negated temporary.
func (t *Tape) Sub(a, b *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.SubInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		a.grad().AddInPlace(out.Grad)
		b.grad().SubInPlace(out.Grad)
	}
	return out
}

// Scale records c = s·a for a constant scalar s.
func (t *Tape) Scale(s float64, a *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.ScaleInto(out.Value, s, a.Value)
	out.backward = func() {
		a.grad().AXPY(s, out.Grad)
	}
	return out
}

// AddRowVec records c = a + v with v a 1×cols bias broadcast over rows.
// Gradient to v is the column-wise sum of the upstream gradient.
func (t *Tape) AddRowVec(a, v *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.AddRowVecInto(out.Value, a.Value, v.Value)
	out.backward = func() {
		a.grad().AddInPlace(out.Grad)
		mat.SumRowsAXPY(v.grad(), 1, out.Grad)
	}
	return out
}

// SubRowVec records c = a − v with v a 1×cols row vector broadcast over
// rows. The v gradient is the negated column sum, accumulated directly.
func (t *Tape) SubRowVec(a, v *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.SubRowVecInto(out.Value, a.Value, v.Value)
	out.backward = func() {
		a.grad().AddInPlace(out.Grad)
		mat.SumRowsAXPY(v.grad(), -1, out.Grad)
	}
	return out
}

// ReLU records c = max(a, 0). The backward pass fuses the mask with the
// accumulation: upstream gradient flows into the grad buffer only where the
// input was positive, with no mask-sized temporary.
func (t *Tape) ReLU(a *Node) *Node {
	out := t.op(a.Value.Dims())
	mat.ApplyInto(out.Value, a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	out.backward = func() {
		gd := a.grad().Data()
		og := out.Grad.Data()
		for i, x := range a.Value.Data() {
			if x > 0 {
				gd[i] += og[i]
			}
		}
	}
	return out
}

// Dropout records inverted dropout with drop probability p, drawing the mask
// from rng. With train=false (or p=0) it is the identity.
func (t *Tape) Dropout(a *Node, p float64, rng *rand.Rand, train bool) *Node {
	if !train || p == 0 {
		return a
	}
	keep := 1 - p
	mask := t.newOwned(a.Value.Dims())
	md := mask.Data()
	for i := range md {
		if rng.Float64() < keep {
			md[i] = 1 / keep
		}
	}
	out := t.op(a.Value.Dims())
	mat.MulElemInto(out.Value, a.Value, mask)
	out.backward = func() {
		mat.MulElemAddInto(a.grad(), out.Grad, mask)
	}
	return out
}

// MeanRows records the 1×cols column-wise mean of a.
func (t *Tape) MeanRows(a *Node) *Node {
	out := t.op(1, a.Value.Cols())
	mat.MeanRowsInto(out.Value, a.Value)
	out.backward = func() {
		n := a.Value.Rows()
		if n == 0 {
			return
		}
		a.grad().AXPYRowBroadcast(1/float64(n), out.Grad)
	}
	return out
}

// PowElem records c = a^p element-wise for a non-negative integer power p.
// Gradient: p·a^(p−1) ⊙ upstream, fused into the grad buffer.
func (t *Tape) PowElem(a *Node, p int) *Node {
	if p < 0 {
		panic(fmt.Sprintf("ad: PowElem power must be >= 0, got %d", p))
	}
	out := t.op(a.Value.Dims())
	mat.PowElemInto(out.Value, a.Value, p)
	out.backward = func() {
		if p == 0 {
			return
		}
		gd := a.grad().Data()
		og := out.Grad.Data()
		fp := float64(p)
		for i, x := range a.Value.Data() {
			gd[i] += og[i] * fp * mat.IPow(x, p-1)
		}
	}
	return out
}

// L2Norm records the scalar ‖a‖₂ over all elements (Frobenius norm for
// matrices). At a = 0 the subgradient 0 is used.
func (t *Tape) L2Norm(a *Node) *Node {
	norm := mat.FrobNorm(a.Value)
	out := t.op(1, 1)
	out.Value.Set(0, 0, norm)
	out.backward = func() {
		if norm == 0 {
			return
		}
		a.grad().AXPY(out.Grad.At(0, 0)/norm, a.Value)
	}
	return out
}

// SumSquares records the scalar Σ a_ij² = ‖a‖²_F.
func (t *Tape) SumSquares(a *Node) *Node {
	out := t.op(1, 1)
	out.Value.Set(0, 0, mat.FrobNormSq(a.Value))
	out.backward = func() {
		a.grad().AXPY(2*out.Grad.At(0, 0), a.Value)
	}
	return out
}

// OrthoPenalty records the orthogonality reconstruction loss of eq. 6,
//
//	f(W) = ‖W·Wᵀ − I‖_F,
//
// with gradient ∂f/∂W = 2·(WWᵀ−I)·W / f (zero subgradient at f = 0).
func (t *Tape) OrthoPenalty(w *Node) *Node {
	g := t.newOwned(w.Value.Rows(), w.Value.Rows())
	mat.MatMulT2Into(g, w.Value, w.Value)
	for i := 0; i < g.Rows(); i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	f := mat.FrobNorm(g)
	out := t.op(1, 1)
	out.Value.Set(0, 0, f)
	out.backward = func() {
		if f == 0 {
			return
		}
		// (WWᵀ−I)·W needs a true product; the temporary comes from the
		// pool and goes straight back.
		tmp := mat.GetDense(w.Value.Dims())
		mat.MatMulInto(tmp, g, w.Value)
		w.grad().AXPY(2*out.Grad.At(0, 0)/f, tmp)
		mat.PutDense(tmp)
	}
	return out
}

// SoftmaxCrossEntropy records the mean cross-entropy between softmax(logits)
// and integer labels over the rows listed in maskIdx. Rows outside maskIdx
// contribute neither loss nor gradient — this implements the semi-supervised
// node-classification objective where only a small training mask is labelled.
//
// The op fuses log-softmax and NLL for numerical stability; its gradient on
// a masked row is (softmax(row) − onehot(label)) / |maskIdx|, written
// directly into the logits gradient buffer.
func (t *Tape) SoftmaxCrossEntropy(logits *Node, labels []int, maskIdx []int) *Node {
	n, c := logits.Value.Dims()
	if len(labels) != n {
		panic(fmt.Sprintf("ad: SoftmaxCrossEntropy got %d labels for %d rows", len(labels), n))
	}
	if len(maskIdx) == 0 {
		panic("ad: SoftmaxCrossEntropy with empty mask")
	}
	probs := t.newOwned(len(maskIdx), c)
	var loss float64
	for mi, r := range maskIdx {
		row := logits.Value.Row(r)
		maxv := math.Inf(-1)
		for _, x := range row {
			if x > maxv {
				maxv = x
			}
		}
		var sum float64
		prow := probs.Row(mi)
		for j, x := range row {
			e := math.Exp(x - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		y := labels[r]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("ad: label %d out of range [0,%d) at row %d", y, c, r))
		}
		loss -= math.Log(math.Max(prow[y], 1e-300))
	}
	loss /= float64(len(maskIdx))
	out := t.op(1, 1)
	out.Value.Set(0, 0, loss)
	out.backward = func() {
		scale := out.Grad.At(0, 0) / float64(len(maskIdx))
		g := logits.grad()
		for mi, r := range maskIdx {
			prow := probs.Row(mi)
			grow := g.Row(r)
			for j, p := range prow {
				grow[j] += p * scale
			}
			grow[labels[r]] -= scale
		}
	}
	return out
}

package ad

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// Backward closures accumulate directly into the input nodes' gradient
// buffers via the fused *AddInto / AXPY kernels in mat and sparse — no
// backward op materialises a full-size temporary. grad() hands out a zeroed
// pool buffer on first touch, so "accumulate" and "initialise" are the same
// write. A closure runs only when its output requires a gradient, so a
// one-input op's input always does; two-input ops skip the input that does
// not (a Const, or a value computed from constants alone).

// MatMul records c = a·b.
// Gradients: ∂L/∂a = ∂L/∂c · bᵀ, ∂L/∂b = aᵀ · ∂L/∂c.
func (t *Tape) MatMul(a, b *Node) *Node {
	if a.Value.Cols() != b.Value.Rows() {
		panic(fmt.Sprintf("ad: MatMul inner dimension mismatch %dx%d · %dx%d",
			a.Value.Rows(), a.Value.Cols(), b.Value.Rows(), b.Value.Cols()))
	}
	out := t.op(a.Value.Rows(), b.Value.Cols(), a, b)
	mat.MatMulInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		if a.requiresGrad {
			mat.MatMulT2AddInto(a.grad(), out.Grad, b.Value)
		}
		if b.requiresGrad {
			mat.MatMulT1AddInto(b.grad(), a.Value, out.Grad)
		}
	}
	return out
}

// SpMM records c = S·x for a constant sparse operator S (the graph
// propagation matrix). Gradient: ∂L/∂x = Sᵀ·∂L/∂c.
func (t *Tape) SpMM(s *sparse.CSR, x *Node) *Node {
	out := t.op(s.Rows(), x.Value.Cols(), x)
	s.MulDenseInto(out.Value, x.Value)
	out.backward = func() {
		s.TMulDenseAddInto(x.grad(), out.Grad)
	}
	return out
}

// Add records c = a + b element-wise.
func (t *Tape) Add(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a, b)
	mat.AddInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.grad().AddInPlace(out.Grad)
		}
	}
	return out
}

// Sub records c = a − b element-wise. The backward pass subtracts the
// upstream gradient in place — no negated temporary.
func (t *Tape) Sub(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a, b)
	mat.SubInto(out.Value, a.Value, b.Value)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.grad().SubInPlace(out.Grad)
		}
	}
	return out
}

// Scale records c = s·a for a constant scalar s.
func (t *Tape) Scale(s float64, a *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a)
	mat.ScaleInto(out.Value, s, a.Value)
	out.backward = func() {
		a.grad().AXPY(s, out.Grad)
	}
	return out
}

// AddRowVec records c = a + v with v a 1×cols bias broadcast over rows.
// Gradient to v is the column-wise sum of the upstream gradient.
func (t *Tape) AddRowVec(a, v *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a, v)
	mat.AddRowVecInto(out.Value, a.Value, v.Value)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if v.requiresGrad {
			mat.SumRowsAXPY(v.grad(), 1, out.Grad)
		}
	}
	return out
}

// ReLU records c = max(a, 0). The backward pass fuses the mask with the
// accumulation: upstream gradient flows into the grad buffer only where the
// input was positive, with no mask-sized temporary.
func (t *Tape) ReLU(a *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a)
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
	r, c := a.Value.Dims()
	out := t.op(r, c, a)
	mat.MulElemInto(out.Value, a.Value, mask)
	out.backward = func() {
		mat.MulElemAddInto(a.grad(), out.Grad, mask)
	}
	return out
}

// MeanRows records the 1×cols column-wise mean of a.
func (t *Tape) MeanRows(a *Node) *Node {
	out := t.op(1, a.Value.Cols(), a)
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

// CentralMoments records the column-wise central moments of z around the
// 1×cols row vector mean, one 1×cols node per order: out[k] holds
// E((z − mean)^(k+2)) for the orders 2..maxOrder. The values come from one
// mat.CentralMomentsInto sweep, the kernel the statistics exchange runs;
// maxOrder < 2 records nothing.
//
// Gradient: with c = z − mean, n rows and G_j the upstream gradient of
// order j, ∂L/∂z += Σ_j (G_j·(1/n))·j·c^(j−1) and ∂L/∂mean −= its column
// sums, in one pass over z. The orders add in descending j, the order in
// which reverse mode reaches separate per-order nodes, so the gradients are
// bit-identical to the composed MeanRows of element-wise powers.
func (t *Tape) CentralMoments(z, mean *Node, maxOrder int) []*Node {
	if maxOrder < 2 {
		return nil
	}
	out := make([]*Node, maxOrder-1)
	vals := make([]*mat.Dense, len(out))
	for k := range out {
		out[k] = t.op(1, z.Value.Cols(), z, mean)
		vals[k] = out[k].Value
	}
	mat.CentralMomentsInto(vals, z.Value, mean.Value)
	// Every order's node carries the pass, and the last-recorded one with a
	// gradient runs it: reverse mode reaches it after the consumers of every
	// order, which were all recorded later, have filled their gradients. A
	// 0-row z has no gradient to pass.
	for k, o := range out {
		later := out[k+1:]
		o.backward = func() {
			if z.Value.Rows() > 0 && !slices.ContainsFunc(later, func(l *Node) bool { return l.Grad != nil }) {
				centralMomentsBackward(z, mean, out)
			}
		}
	}
	return out
}

func centralMomentsBackward(z, mean *Node, out []*Node) {
	n, cols := z.Value.Dims()
	// fac row k is (G·(1/n))·(k+2) for order k+2, rounded as the mean's
	// broadcast and then the power rule's factor would round it.
	fac := mat.GetDense(len(out), cols)
	defer mat.PutDense(fac)
	inv := 1 / float64(n)
	for k, o := range out {
		if o.Grad == nil {
			continue
		}
		f, j := fac.Row(k), float64(k+2)
		for c, g := range o.Grad.Data() {
			f[c] = inv * g * j
		}
	}
	var zg, mg []float64
	if z.requiresGrad {
		zg = z.grad().Data()
	}
	if mean.requiresGrad {
		mg = mean.grad().Data()
	}
	mu, fd := mean.Value.Data(), fac.Data()
	pw := make([]float64, len(out)) // pw[k] = c^(k+1)
	for i := 0; i < n; i++ {
		for c, x := range z.Value.Row(i) {
			d := x - mu[c]
			pw[0] = d
			for k := 1; k < len(pw); k++ {
				pw[k] = pw[k-1] * d
			}
			var g float64
			for k := len(out) - 1; k >= 0; k-- {
				if out[k].Grad != nil {
					g += fd[k*cols+c] * pw[k]
				}
			}
			if zg != nil {
				zg[i*cols+c] += g
			}
			if mg != nil {
				mg[c] -= g
			}
		}
	}
}

// L2Norm records the scalar ‖a‖₂ over all elements (Frobenius norm for
// matrices). At a = 0 the subgradient 0 is used.
func (t *Tape) L2Norm(a *Node) *Node {
	norm := mat.FrobNorm(a.Value)
	out := t.op(1, 1, a)
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
	out := t.op(1, 1, a)
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
	out := t.op(1, 1, w)
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
	out := t.op(1, 1, logits)
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

package ad

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// checkGrad verifies the autodiff gradient of build against central finite
// differences. build must construct the graph from fresh param nodes each
// call so perturbations to the underlying matrices are visible.
func checkGrad(t *testing.T, name string, params []*mat.Dense, build func(tp *Tape, ps []*Node) *Node) {
	t.Helper()
	eval := func() (float64, []*mat.Dense) {
		tp := NewTape()
		nodes := make([]*Node, len(params))
		for i, p := range params {
			nodes[i] = tp.Param(p)
		}
		loss := build(tp, nodes)
		if err := tp.Backward(loss); err != nil {
			t.Fatalf("%s: backward: %v", name, err)
		}
		grads := make([]*mat.Dense, len(params))
		for i, n := range nodes {
			if n.Grad != nil {
				grads[i] = n.Grad.Clone()
			} else {
				grads[i] = mat.New(params[i].Rows(), params[i].Cols())
			}
		}
		return loss.Value.At(0, 0), grads
	}
	_, grads := eval()

	const eps = 1e-6
	for pi, p := range params {
		for i := 0; i < p.Rows(); i++ {
			for j := 0; j < p.Cols(); j++ {
				orig := p.At(i, j)
				p.Set(i, j, orig+eps)
				lp, _ := eval()
				p.Set(i, j, orig-eps)
				lm, _ := eval()
				p.Set(i, j, orig)
				numeric := (lp - lm) / (2 * eps)
				got := grads[pi].At(i, j)
				if math.Abs(numeric-got) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("%s: param %d grad[%d,%d] = %v, finite diff %v", name, pi, i, j, got, numeric)
				}
			}
		}
	}
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandGaussian(rng, 4, 3, 0, 1)
	b := mat.RandGaussian(rng, 3, 5, 0, 1)
	checkGrad(t, "matmul", []*mat.Dense{a, b}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.MatMul(ps[0], ps[1]))
	})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := sparse.NewCSR(4, 4, []sparse.Coord{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 0, Val: 0.5},
		{Row: 2, Col: 3, Val: 1.5}, {Row: 3, Col: 3, Val: -0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, 4, 3, 0, 1)
	checkGrad(t, "spmm", []*mat.Dense{x}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SpMM(s, ps[0]))
	})
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mat.RandGaussian(rng, 3, 4, 0, 1)
	b := mat.RandGaussian(rng, 3, 4, 0, 1)
	checkGrad(t, "add-sub-mul-scale", []*mat.Dense{a, b}, func(tp *Tape, ps []*Node) *Node {
		x := tp.Add(ps[0], ps[1])
		y := tp.Sub(ps[0], ps[1])
		z := tp.Mul(x, y)
		return tp.SumSquares(tp.Scale(0.7, z))
	})
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Keep values away from 0 where ReLU is non-differentiable.
	a := mat.Apply(mat.RandGaussian(rng, 4, 4, 0, 1), func(x float64) float64 {
		if math.Abs(x) < 0.1 {
			return x + 0.2
		}
		return x
	})
	checkGrad(t, "relu", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.ReLU(ps[0]))
	})
}

func TestGradRowVecBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.RandGaussian(rng, 5, 3, 0, 1)
	v := mat.RandGaussian(rng, 1, 3, 0, 1)
	checkGrad(t, "addrowvec", []*mat.Dense{a, v}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.AddRowVec(ps[0], ps[1]))
	})
	checkGrad(t, "subrowvec", []*mat.Dense{a, v}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SubRowVec(ps[0], ps[1]))
	})
}

func TestGradMeanRowsAndPow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := mat.RandGaussian(rng, 6, 3, 0.5, 1)
	mu := mat.RandGaussian(rng, 1, 3, 0, 1)
	momentLoss := func(tp *Tape, moms []*Node) *Node {
		loss := tp.SumSquares(moms[0])
		for _, m := range moms[1:] {
			loss = tp.Add(loss, tp.SumSquares(m))
		}
		return loss
	}
	checkGrad(t, "central-moments", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return momentLoss(tp, tp.CentralMoments(ps[0], tp.MeanRows(ps[0]), 4))
	})
	checkGrad(t, "central-moments-foreign-mean", []*mat.Dense{a, mu}, func(tp *Tape, ps []*Node) *Node {
		return momentLoss(tp, tp.CentralMoments(ps[0], ps[1], 4))
	})
}

func TestGradL2Norm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mat.RandGaussian(rng, 2, 3, 1, 0.5)
	checkGrad(t, "l2norm", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.L2Norm(ps[0])
	})
}

func TestGradSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.RandGaussian(rng, 6, 3, 0, 1)
	checkGrad(t, "selectrows", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SelectRows(ps[0], []int{4, 0, 0, 2}))
	})
}

func TestGradOrthoPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := mat.RandGaussian(rng, 4, 4, 0, 1)
	checkGrad(t, "ortho", []*mat.Dense{w}, func(tp *Tape, ps []*Node) *Node {
		return tp.OrthoPenalty(ps[0])
	})
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := mat.RandGaussian(rng, 6, 4, 0, 1)
	labels := []int{0, 3, 1, 2, 2, 0}
	mask := []int{0, 2, 5}
	checkGrad(t, "softmax-ce", []*mat.Dense{logits}, func(tp *Tape, ps []*Node) *Node {
		return tp.SoftmaxCrossEntropy(ps[0], labels, mask)
	})
}

func TestGradTwoLayerGCNComposite(t *testing.T) {
	// End-to-end composite mirroring the real model wiring:
	// CE(S(ReLU(S·X·W0))·W1) + α·ortho(W0′) + CMD-style moment terms.
	rng := rand.New(rand.NewSource(11))
	s, err := sparse.NewCSR(5, 5, []sparse.Coord{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: 0.5},
		{Row: 1, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 0.5},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 4, Val: 0.7},
		{Row: 4, Col: 3, Val: 0.7}, {Row: 4, Col: 4, Val: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, 5, 3, 0, 1)
	w0 := mat.RandGaussian(rng, 3, 4, 0, 0.7)
	w1 := mat.RandGaussian(rng, 4, 3, 0, 0.7)
	labels := []int{0, 1, 2, 1, 0}
	mask := []int{0, 1, 3}
	globalMean := mat.RandGaussian(rng, 1, 4, 0, 0.3)
	checkGrad(t, "gcn-composite", []*mat.Dense{w0, w1}, func(tp *Tape, ps []*Node) *Node {
		xn := tp.Const(x)
		h := tp.ReLU(tp.SpMM(s, tp.MatMul(xn, ps[0])))
		logits := tp.SpMM(s, tp.MatMul(h, ps[1]))
		ce := tp.SoftmaxCrossEntropy(logits, labels, mask)
		ortho := tp.OrthoPenalty(ps[1])
		cmd := tp.L2Norm(tp.Sub(tp.MeanRows(h), tp.Const(globalMean)))
		return tp.Add(ce, tp.Add(tp.Scale(0.01, ortho), tp.Scale(0.1, cmd)))
	})
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := mat.RandGaussian(rng, 50, 20, 1, 0.1)
	tp := NewTape()
	n := tp.Param(a)
	// Eval mode: identity, same node returned.
	if got := tp.Dropout(n, 0.5, rng, false); got != n {
		t.Fatal("eval-mode dropout should be identity")
	}
	if got := tp.Dropout(n, 0, rng, true); got != n {
		t.Fatal("p=0 dropout should be identity")
	}
	// Train mode: expectation preserved roughly (inverted dropout).
	d := tp.Dropout(n, 0.5, rng, true)
	ratio := mat.Sum(d.Value) / mat.Sum(a)
	if math.Abs(ratio-1) > 0.15 {
		t.Fatalf("inverted dropout mean ratio = %v, want about 1", ratio)
	}
	// Zeroed entries must stay zero in the gradient path.
	loss := tp.SumSquares(d)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Value.Data() {
		if v == 0 && n.Grad.Data()[i] != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
	}
}

func TestBackwardErrors(t *testing.T) {
	tp := NewTape()
	a := tp.Param(mat.New(2, 2))
	if err := tp.Backward(a); err == nil {
		t.Fatal("non-scalar loss accepted")
	}
	other := NewTape()
	s := other.SumSquares(other.Param(mat.New(1, 1)))
	if err := tp.Backward(s); err == nil {
		t.Fatal("foreign node accepted")
	}
}

func TestGradAccumulatesOnReusedNode(t *testing.T) {
	// loss = sum((a+a)^2) = 4*sum(a^2) so dloss/da = 8a.
	a, _ := mat.NewFromRows([][]float64{{1, -2}})
	tp := NewTape()
	n := tp.Param(a)
	loss := tp.SumSquares(tp.Add(n, n))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if n.Grad.At(0, 0) != 8 || n.Grad.At(0, 1) != -16 {
		t.Fatalf("grad = %v want [8 -16]", n.Grad)
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(mat.Eye(2))
	p := tp.Param(mat.Eye(2))
	loss := tp.SumSquares(tp.Mul(c, p))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if c.Grad != nil {
		t.Fatal("const received a gradient buffer")
	}
	if p.Grad == nil {
		t.Fatal("param missing gradient")
	}
	if !p.IsParam() || c.IsParam() {
		t.Fatal("IsParam flags wrong")
	}
}

// TestConstOnlyOpsGetNoGrad checks that an op whose inputs are all constant
// records no gradient, both inside a loss that does depend on a parameter
// and when Backward is called on a loss built from constants alone.
func TestConstOnlyOpsGetNoGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := mat.RandGaussian(rng, 4, 3, 0, 1)
	y := mat.RandGaussian(rng, 4, 3, 0, 1)
	w := mat.RandGaussian(rng, 3, 2, 0, 1)

	tp := NewTape()
	c1, c2 := tp.Const(x), tp.Const(y)
	sum := tp.Add(c1, c2)
	p := tp.Param(w)
	loss := tp.SumSquares(tp.MatMul(sum, p))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Node{"c1": c1, "c2": c2, "c1+c2": sum} {
		if n.Grad != nil {
			t.Errorf("%s received a gradient", name)
		}
	}
	if p.Grad == nil {
		t.Fatal("param missing gradient")
	}

	tp = NewTape()
	cl := tp.SumSquares(tp.MatMul(tp.Sub(tp.Const(x), tp.Const(y)), tp.Const(w)))
	if err := tp.Backward(cl); err != nil {
		t.Fatal(err)
	}
	for i, n := range tp.nodes {
		if n.Grad != nil {
			t.Errorf("node %d of a constant-only loss received a gradient", i)
		}
	}
}

// TestConstMatchesParamGrads builds each graph twice, once with one input as
// a Const and once as a Param, and demands that every true parameter's
// gradient is bit-identical: skipping the constant's backward work must not
// change what the parameters receive.
func TestConstMatchesParamGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := mat.RandGaussian(rng, 6, 4, 0, 1)
	y := mat.RandGaussian(rng, 6, 4, 0, 1)
	v := mat.RandGaussian(rng, 1, 4, 0, 1)
	w0 := mat.RandGaussian(rng, 4, 5, 0, 0.7)
	w1 := mat.RandGaussian(rng, 5, 3, 0, 0.7)
	labels := []int{0, 2, 1, 1, 0, 2}
	mask := []int{0, 1, 3, 5}

	// Each case builds a loss from in (the input that is Const or Param)
	// and the true parameters ps.
	cases := []struct {
		name   string
		in     *mat.Dense
		params []*mat.Dense
		build  func(tp *Tape, in *Node, ps []*Node) *Node
	}{
		{"gcn-chain", x, []*mat.Dense{w0, w1}, func(tp *Tape, in *Node, ps []*Node) *Node {
			h := tp.Dropout(tp.ReLU(tp.MatMul(in, ps[0])), 0.5, rand.New(rand.NewSource(15)), true)
			return tp.SoftmaxCrossEntropy(tp.MatMul(h, ps[1]), labels, mask)
		}},
		{"matmul-const-left", x, []*mat.Dense{w0}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.MatMul(in, ps[0]))
		}},
		{"matmul-const-right", w0, []*mat.Dense{x}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.MatMul(ps[0], in))
		}},
		{"add-const-left", x, []*mat.Dense{y}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.Add(in, ps[0]))
		}},
		{"add-const-right", x, []*mat.Dense{y}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.Add(ps[0], in))
		}},
		{"sub-const-left", x, []*mat.Dense{y}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.Sub(in, ps[0]))
		}},
		{"sub-const-right", x, []*mat.Dense{y}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.Sub(ps[0], in))
		}},
		{"addrowvec-const-matrix", x, []*mat.Dense{v}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.AddRowVec(in, ps[0]))
		}},
		{"addrowvec-const-vector", v, []*mat.Dense{x}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.AddRowVec(ps[0], in))
		}},
		{"subrowvec-const-matrix", x, []*mat.Dense{v}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.SubRowVec(in, ps[0]))
		}},
		{"subrowvec-const-vector", v, []*mat.Dense{x}, func(tp *Tape, in *Node, ps []*Node) *Node {
			return tp.SumSquares(tp.SubRowVec(ps[0], in))
		}},
	}
	for _, tc := range cases {
		run := func(asParam bool) (*Node, []*Node) {
			tp := NewTape()
			in := tp.Const(tc.in)
			if asParam {
				in = tp.Param(tc.in)
			}
			ps := make([]*Node, len(tc.params))
			for i, p := range tc.params {
				ps[i] = tp.Param(p)
			}
			if err := tp.Backward(tc.build(tp, in, ps)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return in, ps
		}
		cin, cps := run(false)
		pin, pps := run(true)
		if cin.Grad != nil || pin.Grad == nil {
			t.Fatalf("%s: input gradient const=%v param=%v, want nil and non-nil", tc.name, cin.Grad != nil, pin.Grad != nil)
		}
		for i := range cps {
			cg, pg := cps[i].Grad, pps[i].Grad
			if cg == nil || pg == nil {
				t.Fatalf("%s: param %d missing gradient", tc.name, i)
			}
			for j, g := range cg.Data() {
				if g != pg.Data()[j] {
					t.Fatalf("%s: param %d grad[%d] = %v with a Const input, %v with a Param input", tc.name, i, j, g, pg.Data()[j])
				}
			}
		}
	}
}

// IsParam reports whether the node was created with Tape.Param: it requires
// a gradient and has no backward of its own.
func (n *Node) IsParam() bool { return n.requiresGrad && n.backward == nil }

// Mul records the Hadamard product c = a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a, b)
	od, bd := out.Value.Data(), b.Value.Data()
	for i, x := range a.Value.Data() {
		od[i] = x * bd[i]
	}
	out.backward = func() {
		if a.requiresGrad {
			mat.MulElemAddInto(a.grad(), out.Grad, b.Value)
		}
		if b.requiresGrad {
			mat.MulElemAddInto(b.grad(), out.Grad, a.Value)
		}
	}
	return out
}

// SelectRows records c = a[idx, :] (row gather). Gradient scatters back
// directly into the grad buffer.
func (t *Tape) SelectRows(a *Node, idx []int) *Node {
	out := t.op(len(idx), a.Value.Cols(), a)
	a.Value.SelectRowsInto(out.Value, idx)
	out.backward = func() {
		g := a.grad()
		for i, r := range idx {
			dst := g.Row(r)
			for j, v := range out.Grad.Row(i) {
				dst[j] += v
			}
		}
	}
	return out
}

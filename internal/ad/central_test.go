package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
)

// composedPow is the oracle CentralMoments replaced: c = a^p element-wise by
// repeated multiplication from 1, with gradient p·a^(p−1) ⊙ upstream.
func composedPow(t *Tape, a *Node, p int) *Node {
	ipow := func(x float64, p int) float64 {
		r := 1.0
		for k := 0; k < p; k++ {
			r *= x
		}
		return r
	}
	r, c := a.Value.Dims()
	out := t.op(r, c, a)
	for i, x := range a.Value.Data() {
		out.Value.Data()[i] = ipow(x, p)
	}
	out.backward = func() {
		gd := a.grad().Data()
		og := out.Grad.Data()
		fp := float64(p)
		for i, x := range a.Value.Data() {
			gd[i] += og[i] * fp * ipow(x, p-1)
		}
	}
	return out
}

// SubRowVec records c = a − v with v a 1×cols row vector broadcast over
// rows, the centring step of the composed oracle. The v gradient is the
// negated column sum, accumulated directly.
func (t *Tape) SubRowVec(a, v *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, a, v)
	copy(out.Value.Data(), mat.SubRowVec(a.Value, v.Value).Data())
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if v.requiresGrad {
			mat.SumRowsAXPY(v.grad(), -1, out.Grad)
		}
	}
	return out
}

// composedCentralMoments records the oracle's per-order chain:
// MeanRows(composedPow(z − mean, j)) for j = 2..maxOrder.
func composedCentralMoments(tp *Tape, z, mean *Node, maxOrder int) []*Node {
	centered := tp.SubRowVec(z, mean)
	var out []*Node
	for j := 2; j <= maxOrder; j++ {
		out = append(out, tp.MeanRows(composedPow(tp, centered, j)))
	}
	return out
}

// momentLoss weighs each order's distance to a fixed target the way the CMD
// losses do, alternating the plain and the squared norm.
func momentLoss(tp *Tape, moms []*Node, targets []*mat.Dense) *Node {
	loss := tp.Const(mat.New(1, 1))
	for k, m := range moms {
		diff := tp.Sub(m, tp.Const(targets[k]))
		term := tp.SumSquares(diff)
		if k%2 == 1 {
			term = tp.L2Norm(diff)
		}
		loss = tp.Add(loss, tp.Scale(1/math.Pow(2, float64(k+2)), term))
	}
	return loss
}

func sameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: op nil=%v, composed nil=%v", what, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if gr, gc := got.Dims(); gr != want.Rows() || gc != want.Cols() {
		t.Fatalf("%s: op %dx%d, composed %dx%d", what, gr, gc, want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d]: op %v, composed %v", what, i, g, w)
		}
	}
}

// TestCentralMomentsMatchesComposedExactly pins the one-pass op to the
// composed MeanRows(PowElem) chain bit for bit: every order's value and the
// gradients of z and of the mean, whether the mean is z's own (as in the CMD
// loss), an independent parameter or a constant.
func TestCentralMomentsMatchesComposedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 903} {
		for _, cols := range []int{3, 13} {
			for maxOrder := 2; maxOrder <= 5; maxOrder++ {
				// Negative entries: odd orders keep their sign.
				z := mat.RandGaussian(rng, n, cols, -0.2, 1.5)
				mu := mat.RandGaussian(rng, 1, cols, 0.1, 0.5)
				targets := make([]*mat.Dense, maxOrder-1)
				for k := range targets {
					targets[k] = mat.RandGaussian(rng, 1, cols, 0, 1)
				}
				for _, meanKind := range []string{"own", "param", "const"} {
					run := func(moments func(tp *Tape, z, mean *Node, maxOrder int) []*Node) ([]*mat.Dense, *mat.Dense, *mat.Dense) {
						tp := NewTape()
						zn := tp.Param(z)
						var mean *Node
						switch meanKind {
						case "own":
							mean = tp.MeanRows(zn)
						case "param":
							mean = tp.Param(mu)
						default:
							mean = tp.Const(mu)
						}
						moms := moments(tp, zn, mean, maxOrder)
						if err := tp.Backward(momentLoss(tp, moms, targets)); err != nil {
							t.Fatal(err)
						}
						vals := make([]*mat.Dense, len(moms))
						for k, m := range moms {
							vals[k] = m.Value
						}
						return vals, zn.Grad, mean.Grad
					}
					name := fmt.Sprintf("n%d/cols%d/K%d/%s-mean", n, cols, maxOrder, meanKind)
					gotV, gotZ, gotM := run((*Tape).CentralMoments)
					wantV, wantZ, wantM := run(composedCentralMoments)
					if len(gotV) != maxOrder-1 {
						t.Fatalf("%s: %d orders, want %d", name, len(gotV), maxOrder-1)
					}
					for k := range wantV {
						sameBits(t, fmt.Sprintf("%s order %d", name, k+2), gotV[k], wantV[k])
					}
					sameBits(t, name+" z grad", gotZ, wantZ)
					sameBits(t, name+" mean grad", gotM, wantM)
				}
			}
		}
	}
}

func TestCentralMomentsBelowOrderTwoRecordsNothing(t *testing.T) {
	tp := NewTape()
	z := tp.Param(mat.Eye(2))
	mean := tp.MeanRows(z)
	before := tp.Len()
	if got := tp.CentralMoments(z, mean, 1); len(got) != 0 || tp.Len() != before {
		t.Fatalf("maxOrder 1 recorded %d nodes and returned %d", tp.Len()-before, len(got))
	}
}

package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
)

// The tests here pin the training step's fast paths == to the slower code
// they replaced, kept below as oracles: the generic central-moment backward
// and the two-pass dropout.

// edgeMat returns an r×c matrix of Gaussian values, negatives among them,
// with −0 at every seventh element and one special value in each of the
// columns 0, 1, 2, 3 and 4 mod 8: NaN in row 3, +Inf in row 4, −Inf in row
// 5, −1e70 (its fifth power overflows) in row 6 and +Inf in row 0. The other
// columns stay finite.
func edgeMat(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
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

// sameFloats fails the test at the first element where got and want differ
// in bits, counting any two NaNs as equal (their payloads depend on operand
// order within a commutative add). nil matches only nil.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d elements (nil %v), want %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s[%d]: fast %v (%#x), oracle %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// gradCopy returns a copy of n's gradient, nil when it has none.
func gradCopy(n *Node) []float64 {
	if n.Grad == nil {
		return nil
	}
	return append([]float64(nil), n.Grad.Data()...)
}

// TestCentralMomentsBackwardFourOrdersMatchesGeneric runs the K=5 backward
// and the generic loop on identical nodes, with gradients already
// accumulated into z and the mean, and compares the results bit for bit.
// The subsets of orders and the constant z or mean take the generic loop
// through the dispatch, which must not crash or differ.
func TestCentralMomentsBackwardFourOrdersMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	subsets := [][]int{{0, 1, 2, 3}, {0, 2}, {3}, {1, 2, 3}}
	for _, n := range []int{0, 1, 903} {
		for _, cols := range []int{1, 7, 64} {
			z, mu := edgeMat(rng, n, cols), edgeMat(rng, 1, cols)
			z0, mu0 := edgeMat(rng, n, cols), edgeMat(rng, 1, cols)
			ups := make([]*mat.Dense, 4)
			for k := range ups {
				ups[k] = edgeMat(rng, 1, cols)
			}
			for _, orders := range subsets {
				for _, kind := range []string{"both", "const-mean", "const-z"} {
					run := func(backward func(z, mean *Node, out []*Node)) (zg, mg []float64) {
						tp := NewTape()
						defer tp.Release()
						zn, mn := tp.Param(z), tp.Param(mu)
						switch kind {
						case "const-mean":
							mn = tp.Const(mu)
						case "const-z":
							zn = tp.Const(z)
						}
						out := tp.CentralMoments(zn, mn, 5)
						for _, k := range orders {
							out[k].Grad = ups[k]
						}
						if zn.requiresGrad {
							copy(zn.grad().Data(), z0.Data())
						}
						if mn.requiresGrad {
							copy(mn.grad().Data(), mu0.Data())
						}
						backward(zn, mn, out)
						return gradCopy(zn), gradCopy(mn)
					}
					name := fmt.Sprintf("n%d/cols%d/orders%v/%s", n, cols, orders, kind)
					gotZ, gotM := run(centralMomentsBackward)
					wantZ, wantM := run(centralMomentsBackwardGeneric)
					sameFloats(t, name+" z grad", gotZ, wantZ)
					sameFloats(t, name+" mean grad", gotM, wantM)
				}
			}
		}
	}
}

// dropoutTwoPass is Tape.Dropout as it was before it wrote its output in
// one pass: a zeroed mask filled from the same draws, then a second pass
// multiplying it in.
func dropoutTwoPass(t *Tape, a *Node, p float64, rng *rand.Rand) *Node {
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
	od := out.Value.Data()
	for i, x := range a.Value.Data() {
		od[i] = x * md[i]
	}
	out.backward = func() {
		mat.MulElemAddInto(a.grad(), out.Grad, mask)
	}
	return out
}

// TestDropoutOnePassMatchesTwoPass pins the one-pass dropout to the
// two-pass oracle: the output bit for bit, the gradient its mask passes back
// onto an already accumulated input gradient, and the RNG state afterwards.
func TestDropoutOnePassMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, shape := range [][2]int{{0, 4}, {1, 1}, {903, 7}, {30, 64}} {
		a, g0, up := edgeMat(rng, shape[0], shape[1]), edgeMat(rng, shape[0], shape[1]), edgeMat(rng, shape[0], shape[1])
		for _, p := range []float64{0.2, 0.5, 0.9} {
			for seed := int64(1); seed <= 3; seed++ {
				run := func(dropout func(tp *Tape, a *Node, p float64, rng *rand.Rand) *Node) (out, grad []float64, next int64) {
					tp := NewTape()
					defer tp.Release()
					draws := rand.New(rand.NewSource(seed))
					an := tp.Param(a)
					o := dropout(tp, an, p, draws)
					copy(an.grad().Data(), g0.Data())
					o.Grad = up
					o.backward()
					return append([]float64(nil), o.Value.Data()...), gradCopy(an), draws.Int63()
				}
				onePass := func(tp *Tape, a *Node, p float64, rng *rand.Rand) *Node { return tp.Dropout(a, p, rng, true) }
				name := fmt.Sprintf("%dx%d/p%v/seed%d", shape[0], shape[1], p, seed)
				gotOut, gotGrad, gotNext := run(onePass)
				wantOut, wantGrad, wantNext := run(dropoutTwoPass)
				sameFloats(t, name+" out", gotOut, wantOut)
				sameFloats(t, name+" grad", gotGrad, wantGrad)
				if gotNext != wantNext {
					t.Fatalf("%s: next draw %d after the one-pass dropout, %d after the two-pass", name, gotNext, wantNext)
				}
			}
		}
	}
}

// TestReLUEdgeValues: NaN, −0 and every non-positive value map to +0, as
// the closure ReLU's x > 0 test did.
func TestReLUEdgeValues(t *testing.T) {
	in := []float64{math.NaN(), math.Copysign(0, -1), 0, -1, 2, math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
	want := []float64{0, 0, 0, 0, 2, math.Inf(1), 0, 5e-324, 0}
	tp := NewTape()
	defer tp.Release()
	out := tp.ReLU(tp.Const(mat.NewFromData(1, len(in), in)))
	sameFloats(t, "ReLU", out.Value.Data(), want)
}

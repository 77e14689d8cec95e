package nn

import (
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// allocFixture builds a small training problem: shapes deliberately stay
// below the parallel-kernel thresholds so every kernel runs serially and the
// measured allocations come from the training step itself.
func allocFixture(t testing.TB) (*sparse.CSR, *mat.Dense, []int, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const n, feats, classes = 16, 8, 3
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: (i + 1) % n, Val: 1},
			sparse.Coord{Row: (i + 1) % n, Col: i, Val: 1})
	}
	adj, err := sparse.NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sparse.GCNNormalize(adj)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, n, feats, 0, 1)
	labels := make([]int, n)
	maskIdx := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
		maskIdx[i] = i
	}
	return s, x, labels, maskIdx
}

// trainStepAllocs measures steady-state allocations of one full training step
// (forward, backward, Adam update, Release) after warm-up steps that populate
// the pool, the tape arena, and the optimizer state.
func trainStepAllocs(t *testing.T, model Model, in Input) float64 {
	t.Helper()
	_, _, labels, maskIdx := allocFixture(t)
	if in.X.Rows() != len(labels) {
		t.Fatalf("fixture mismatch: %d rows for %d labels", in.X.Rows(), len(labels))
	}
	tp := ad.NewTape()
	opt := NewAdam(0.01, 0)
	rng := rand.New(rand.NewSource(1))
	step := func() {
		f := model.Forward(tp, in, rng, true)
		loss := tp.SoftmaxCrossEntropy(f.Logits, labels, maskIdx)
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(model.Params(), f.ParamNodes); err != nil {
			t.Fatal(err)
		}
		tp.Release()
	}
	for i := 0; i < 3; i++ {
		step() // warm up pool buckets, arena capacity, Adam state
	}
	return testing.AllocsPerRun(10, step)
}

// The bounds below pin the steady-state allocation count per training step.
// What remains after pooling is O(ops) bookkeeping — one backward closure per
// recorded op plus a few slice headers per forward — independent of matrix
// sizes. The seed implementation allocated every forward value, gradient and
// backward temporary afresh (hundreds of allocations, scaling with data), so
// a regression that re-introduces per-element churn trips these immediately.

func TestTrainStepAllocsMLP(t *testing.T) {
	_, x, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(2))
	m, err := NewMLP(rng, []int{x.Cols(), 8, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainStepAllocs(t, m, Input{X: x}); got > 40 {
		t.Fatalf("MLP steady-state step allocates %.0f times, want <= 40", got)
	}
}

func TestTrainStepAllocsGCN(t *testing.T) {
	s, x, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(3))
	m, err := NewGCN(rng, []int{x.Cols(), 8, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainStepAllocs(t, m, Input{S: s, X: x}); got > 40 {
		t.Fatalf("GCN steady-state step allocates %.0f times, want <= 40", got)
	}
}

func TestTrainStepAllocsOrthoGCN(t *testing.T) {
	s, x, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(4))
	m, err := NewOrthoGCN(rng, x.Cols(), 8, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainStepAllocs(t, m, Input{S: s, X: x}); got > 80 {
		t.Fatalf("OrthoGCN steady-state step allocates %.0f times, want <= 80", got)
	}
}

// TestGCNForwardMatchesUncached compares the GCN forward, in whichever
// layer-1 order the rule picks, against an explicit S̃·(X·W) computed by hand.
func TestGCNForwardMatchesUncached(t *testing.T) {
	s, x, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(5))
	m, err := NewGCN(rng, []int{x.Cols(), 8, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := ad.NewTape()
	f := m.Forward(tp, Input{S: s, X: x}, rng, false)

	// Reference: ReLU(S̃·(X·W⁰)), then S̃·(H·W¹) — mirrors the pre-cache
	// formulation with the SpMM applied after the dense product.
	w0, w1 := m.params.At(0), m.params.At(1)
	h := mat.Apply(s.MulDense(mat.MatMul(x, w0)), func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
	want := s.MulDense(mat.MatMul(h, w1))
	for i, v := range f.Logits.Value.Data() {
		if d := v - want.Data()[i]; d > 1e-10 || d < -1e-10 {
			t.Fatalf("logits[%d] = %v want %v", i, v, want.Data()[i])
		}
	}
	tp.Release()
}

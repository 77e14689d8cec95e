package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

func TestParamsBasics(t *testing.T) {
	p := NewParams()
	p.Add("w0", mat.Eye(2))
	p.Add("b0", mat.New(1, 2))
	if p.Len() != 2 || p.Get("w0") == nil || p.Get("nope") != nil {
		t.Fatal("basic accessors wrong")
	}
	if got := p.Names(); got[0] != "w0" || got[1] != "b0" {
		t.Fatalf("order not preserved: %v", got)
	}
	if p.NumFloats() != 6 || p.Bytes() != 48 {
		t.Fatalf("size accounting wrong: %d floats %d bytes", p.NumFloats(), p.Bytes())
	}
	c := p.Clone()
	c.Get("w0").Set(0, 0, 5)
	if p.Get("w0").At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestParamsDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name accepted")
		}
	}()
	p := NewParams()
	p.Add("w", mat.New(1, 1))
	p.Add("w", mat.New(1, 1))
}

func TestParamsCompatibilityErrors(t *testing.T) {
	a := NewParams()
	a.Add("w", mat.New(2, 2))
	b := NewParams()
	b.Add("w", mat.New(2, 3))
	if err := a.CopyFrom(b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	c := NewParams()
	c.Add("x", mat.New(2, 2))
	if err := a.AXPY(1, c); err == nil {
		t.Fatal("name mismatch accepted")
	}
	d := NewParams()
	if err := a.CopyFrom(d); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAverageWeighted(t *testing.T) {
	mk := func(v float64) *Params {
		p := NewParams()
		m := mat.New(1, 1)
		m.Set(0, 0, v)
		p.Add("w", m)
		return p
	}
	avg, err := Average([]*Params{mk(1), mk(4)}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := avg.Get("w").At(0, 0); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("weighted average = %v want 1.75", got)
	}
	if _, err := Average(nil, nil); err == nil {
		t.Fatal("empty average accepted")
	}
	if _, err := Average([]*Params{mk(1)}, []float64{0}); err == nil {
		t.Fatal("zero-total weights accepted")
	}
	if _, err := Average([]*Params{mk(1)}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := Average([]*Params{mk(1), mk(2)}, []float64{1}); err == nil {
		t.Fatal("weight/set count mismatch accepted")
	}
}

func TestL2Distance(t *testing.T) {
	a := NewParams()
	a.Add("w", mat.Eye(2))
	b := NewParams()
	b.Add("w", mat.New(2, 2))
	d, err := a.L2Distance(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-math.Sqrt2) > 1e-9 {
		t.Fatalf("L2Distance = %v want sqrt(2)", d)
	}
}

// lineGraph returns the normalised operator of a 4-node path and features.
func lineGraph(t *testing.T) (*sparse.CSR, *mat.Dense) {
	t.Helper()
	adj, err := sparse.NewCSR(4, 4, []sparse.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 1, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sparse.GCNNormalize(adj)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rand.New(rand.NewSource(1)), 4, 3, 0, 1)
	return s, x
}

func TestMLPForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewMLP(rng, []int{3, 8, 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, x := lineGraph(t)
	tp := ad.NewTape()
	f := m.Forward(tp, Input{X: x}, rng, false)
	if r, c := f.Logits.Value.Dims(); r != 4 || c != 2 {
		t.Fatalf("logits %dx%d", r, c)
	}
	if len(f.Hidden) != 1 || f.Hidden[0].Value.Cols() != 8 {
		t.Fatal("hidden shapes wrong")
	}
	if len(f.ParamNodes) != 4 {
		t.Fatalf("param nodes = %d want 4", len(f.ParamNodes))
	}
}

func TestNewModelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := NewMLP(rng, []int{3}, 0); err == nil {
		t.Fatal("1-dim MLP accepted")
	}
	if _, err := NewGCN(rng, []int{3}, 0); err == nil {
		t.Fatal("1-dim GCN accepted")
	}
	if _, err := NewOrthoGCN(rng, 3, 8, 2, 0, 0); err == nil {
		t.Fatal("0 hidden layers accepted")
	}
	if _, err := NewOrthoGCN(rng, 0, 8, 2, 2, 0); err == nil {
		t.Fatal("0 input dim accepted")
	}
}

func TestGCNForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewGCN(rng, []int{3, 6, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, x := lineGraph(t)
	tp := ad.NewTape()
	f := m.Forward(tp, Input{S: s, X: x}, rng, false)
	if r, c := f.Logits.Value.Dims(); r != 4 || c != 2 {
		t.Fatalf("logits %dx%d", r, c)
	}
	if len(f.Hidden) != 1 {
		t.Fatal("hidden count wrong")
	}
}

func TestOrthoGCNStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Table 1 with 3 hidden layers: GCNConv + 2 OrthoConv + GCNConv.
	m, err := NewOrthoGCN(rng, 3, 6, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Params().Len() != 4 {
		t.Fatalf("param count = %d want 4 (in, 2 ortho, out)", m.Params().Len())
	}
	if m.HiddenLayers() != 3 {
		t.Fatal("HiddenLayers wrong")
	}
	s, x := lineGraph(t)
	tp := ad.NewTape()
	f := m.Forward(tp, Input{S: s, X: x}, rng, false)
	if len(f.Hidden) != 3 {
		t.Fatalf("hidden reps = %d want 3", len(f.Hidden))
	}
	if len(f.OrthoNodes) != 2 {
		t.Fatalf("ortho nodes = %d want 2", len(f.OrthoNodes))
	}
	if r, c := f.Logits.Value.Dims(); r != 4 || c != 2 {
		t.Fatalf("logits %dx%d", r, c)
	}
	// Hidden activations must be non-negative (post-ReLU) — the premise of
	// the CMD bound [a,b] = [0,1].
	for li, h := range f.Hidden {
		if mat.Min(h.Value) < 0 {
			t.Fatalf("hidden layer %d has negative activation", li)
		}
	}
}

// trainStep does one full-batch step and returns the loss.
func trainStep(t *testing.T, m Model, in Input, labels []int, mask []int, opt *Adam, rng *rand.Rand) float64 {
	t.Helper()
	tp := ad.NewTape()
	f := m.Forward(tp, in, rng, true)
	loss := tp.SoftmaxCrossEntropy(f.Logits, labels, mask)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(m.Params(), f.ParamNodes); err != nil {
		t.Fatal(err)
	}
	return loss.Value.At(0, 0)
}

func TestTrainingReducesLossAllModels(t *testing.T) {
	s, x := lineGraph(t)
	labels := []int{0, 0, 1, 1}
	mask := []int{0, 1, 2, 3}
	rng := rand.New(rand.NewSource(7))

	mlp, _ := NewMLP(rng, []int{3, 8, 2}, 0)
	gcn, _ := NewGCN(rng, []int{3, 8, 2}, 0)
	ortho, _ := NewOrthoGCN(rng, 3, 8, 2, 2, 0)
	for name, m := range map[string]Model{"mlp": mlp, "gcn": gcn, "ortho": ortho} {
		opt := NewAdam(0.05, 0)
		first := trainStep(t, m, Input{S: s, X: x}, labels, mask, opt, rng)
		var last float64
		for i := 0; i < 60; i++ {
			last = trainStep(t, m, Input{S: s, X: x}, labels, mask, opt, rng)
		}
		if last >= first*0.7 {
			t.Fatalf("%s: loss did not drop: %v -> %v", name, first, last)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParams()
	w := mat.New(1, 3)
	w.Set(0, 0, 5)
	w.Set(0, 1, -3)
	w.Set(0, 2, 1)
	p.Add("w", w)
	opt := NewAdam(0.2, 0)
	for i := 0; i < 300; i++ {
		tp := ad.NewTape()
		n := tp.Param(w)
		loss := tp.SumSquares(n)
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(p, []*ad.Node{n}); err != nil {
			t.Fatal(err)
		}
	}
	if norm := mat.FrobNorm(w); norm > 1e-2 {
		t.Fatalf("Adam failed to minimise quadratic: ‖w‖=%v", norm)
	}
}

func TestAdamReset(t *testing.T) {
	p := NewParams()
	p.Add("w", mat.Eye(2))
	opt := NewAdam(0.1, 0)
	tp := ad.NewTape()
	n := tp.Param(p.Get("w"))
	loss := tp.SumSquares(n)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(p, []*ad.Node{n}); err != nil {
		t.Fatal(err)
	}
	opt.Reset()
	if opt.m != nil || opt.t != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestForwardDeterministicInEval(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(8))
	m, _ := NewOrthoGCN(rng, 3, 6, 2, 2, 0.5)
	out := func() *mat.Dense {
		tp := ad.NewTape()
		return m.Forward(tp, Input{S: s, X: x}, rand.New(rand.NewSource(99)), false).Logits.Value
	}
	if !out().Equal(out()) {
		t.Fatal("eval forward not deterministic")
	}
}

// HiddenLayers returns the number of hidden representations the model emits.
func (m *OrthoGCN) HiddenLayers() int { return m.hiddenLayers }

// Reset clears Adam's moment state (used when a client receives fresh global
// weights and should not carry stale momentum across rounds).
func (o *Adam) Reset() {
	o.t = 0
	o.m, o.v = nil, nil
}

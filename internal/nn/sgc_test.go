package nn

import (
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

func TestSGCValidation(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSGC(rng, s, x, 2, 0); err == nil {
		t.Fatal("0 hops accepted")
	}
	if _, err := NewSGC(rng, s, x, 0, 2); err == nil {
		t.Fatal("0 classes accepted")
	}
	if _, err := NewSGC(rng, nil, x, 2, 2); err == nil {
		t.Fatal("nil operator accepted")
	}
}

func TestSGCPropagationEqualsRepeatedSpMM(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(2))
	m, err := NewSGC(rng, s, x, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := s.MulDense(s.MulDense(s.MulDense(x)))
	if !m.propagated.EqualApprox(want, 1e-12) {
		t.Fatal("cached propagation wrong")
	}
	if m.Hops() != 3 || m.NeedsGraph() {
		t.Fatal("metadata wrong")
	}
}

func TestSGCTrains(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(3))
	m, err := NewSGC(rng, s, x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0, 0, 1, 1}
	mask := []int{0, 1, 2, 3}
	opt := NewAdam(0.1, 0)
	var first, last float64
	for i := 0; i < 50; i++ {
		tp := ad.NewTape()
		f := m.Forward(tp, Input{}, rng, true)
		loss := tp.SoftmaxCrossEntropy(f.Logits, labels, mask)
		if i == 0 {
			first = loss.Value.At(0, 0)
		}
		last = loss.Value.At(0, 0)
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(m.Params(), f.ParamNodes); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first*0.5 {
		t.Fatalf("SGC did not train: %v -> %v", first, last)
	}
}

func TestSGCLogitsShape(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(4))
	m, err := NewSGC(rng, s, x, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tp := ad.NewTape()
	f := m.Forward(tp, Input{}, rng, false)
	if r, c := f.Logits.Value.Dims(); r != 4 || c != 3 {
		t.Fatalf("logits %dx%d", r, c)
	}
	if mat.FrobNorm(f.Logits.Value) == 0 {
		t.Fatal("logits identically zero")
	}
}

// Hops returns the propagation depth K.
func (m *SGC) Hops() int { return m.hops }

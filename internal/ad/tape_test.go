package ad

import (
	"testing"

	"fedomd/internal/mat"
)

func TestZeroGrads(t *testing.T) {
	tp := NewTape()
	p := tp.Param(mat.Eye(2))
	loss := tp.SumSquares(p)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if p.Grad == nil {
		t.Fatal("no gradient before reset")
	}
	tp.ZeroGrads()
	if p.Grad != nil || loss.Grad != nil {
		t.Fatal("ZeroGrads left gradients behind")
	}
	// Backward works again after a reset.
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if p.Grad == nil {
		t.Fatal("no gradient after reset+backward")
	}
}

func TestTapeLenGrows(t *testing.T) {
	tp := NewTape()
	if tp.Len() != 0 {
		t.Fatal("fresh tape not empty")
	}
	a := tp.Param(mat.Eye(2))
	tp.Add(a, a)
	if tp.Len() != 2 {
		t.Fatalf("tape len = %d want 2", tp.Len())
	}
}

func TestBackwardStopsAtLossNode(t *testing.T) {
	// Nodes recorded after the loss must not receive gradients.
	tp := NewTape()
	p := tp.Param(mat.Eye(2))
	loss := tp.SumSquares(p)
	later := tp.Scale(2, p)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if later.Grad != nil {
		t.Fatal("post-loss node received gradient")
	}
}

func TestPowElemNegativePowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative power accepted")
		}
	}()
	tp := NewTape()
	tp.PowElem(tp.Param(mat.Eye(2)), -1)
}

func TestSoftmaxCEValidation(t *testing.T) {
	tp := NewTape()
	logits := tp.Param(mat.New(2, 3))
	for name, f := range map[string]func(){
		"label-count": func() { tp.SoftmaxCrossEntropy(logits, []int{0}, []int{0}) },
		"empty-mask":  func() { tp.SoftmaxCrossEntropy(logits, []int{0, 1}, nil) },
		"bad-label":   func() { tp.SoftmaxCrossEntropy(logits, []int{0, 9}, []int{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

// ZeroGrads clears gradients on every node of the tape (useful when a tape is
// reused for gradient checking). The detached buffers stay registered with
// the tape and are recycled by the next Release.
func (t *Tape) ZeroGrads() {
	for _, n := range t.nodes {
		n.Grad = nil
	}
}

// Len returns the number of recorded nodes.
func (t *Tape) Len() int { return len(t.nodes) }

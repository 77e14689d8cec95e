// Package ad implements reverse-mode automatic differentiation over dense
// matrices. It is the substrate that replaces the PyTorch autodiff the paper
// relies on: models build their forward pass eagerly through the op
// constructors in ops.go and call Tape.Backward on the scalar loss node to
// populate parameter gradients.
//
// Only what depends on a parameter is differentiated, as with PyTorch's
// requires_grad: a Param node requires a gradient, a Const does not, and an
// op's output does when any of its inputs does. Backward fills Grad on
// exactly those nodes the loss depends on — a constant input such as the
// pre-propagated features S̃X never gets a gradient buffer, and no backward
// kernel runs on its behalf.
//
// Tapes are reusable arenas. A fresh tape works like before — record, then
// Backward — but a long-lived training loop should keep one tape per client
// and call Release after each optimizer step: the node storage is recycled
// across steps and every forward value, gradient and op-internal buffer the
// tape allocated is returned to the mat buffer pool, so a steady-state
// training step performs (almost) no heap allocation.
//
// Gradient correctness for every op is verified against central finite
// differences in grad_test.go.
package ad

import (
	"fmt"

	"fedomd/internal/mat"
	"fedomd/internal/telemetry"
)

// Process-global telemetry: tape growth and backward passes are the
// autodiff cost drivers (every recorded op implies a forward kernel and, if
// reached, a backward one). A single uncontended atomic add per event is
// negligible next to the matrix work each op performs, so these stay on
// unconditionally; reports and /debug/vars pick them up via the telemetry
// registry.
var (
	tapeOpCount   = telemetry.NewCounter("ad/tape_ops")
	backwardCount = telemetry.NewCounter("ad/backward_passes")
)

// Node is one value in the computation graph: its forward result, the
// gradient of the loss with respect to it (populated by Backward), and a
// closure that pushes its gradient to its inputs.
type Node struct {
	// Value is the forward result. It must not be mutated after creation.
	// For op outputs the storage is owned by the tape and is recycled by
	// Release; leaf (Const/Param) values stay caller-owned.
	Value *mat.Dense
	// Grad is ∂loss/∂Value, allocated lazily during the backward pass from
	// the tape's buffer pool. Only nodes with a Param upstream (or Params
	// themselves) get one; it remains nil for constants, for everything
	// computed from constants alone and for nodes the loss does not depend
	// on, and is only valid until the tape is Released.
	Grad *mat.Dense

	backward func() // nil for leaves and constants
	// requiresGrad marks a Param or an op output with a Param upstream:
	// backward closures write only into inputs that carry it.
	requiresGrad bool
	tape         *Tape
}

// grad returns n.Grad, allocating a zeroed pool buffer on first use. The
// fused backward kernels accumulate directly into this buffer instead of
// materialising a temporary and adding it.
func (n *Node) grad() *mat.Dense {
	if n.Grad == nil {
		n.Grad = n.tape.newOwned(n.Value.Rows(), n.Value.Cols())
	}
	return n.Grad
}

// Tape records nodes in creation order. The forward pass is eager: calling
// an op both computes its value and appends it to the tape.
type Tape struct {
	nodes []*Node
	// arena backs the Node structs so step N+1 reuses step N's storage.
	// When append relocates the arena mid-step, previously vended pointers
	// keep referencing the old backing array — still correct, the old nodes
	// simply are not recycled; the grown arena serves subsequent steps.
	arena []Node
	// owned lists every pool buffer this tape allocated (forward values,
	// gradients, op-internal state); Release returns them all.
	owned []*mat.Dense
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// newOwned draws a zeroed pool buffer and registers it for Release.
func (t *Tape) newOwned(r, c int) *mat.Dense {
	m := mat.GetDense(r, c)
	t.owned = append(t.owned, m)
	return m
}

// node vends a Node from the arena, records it, and returns it.
func (t *Tape) node(v *mat.Dense) *Node {
	tapeOpCount.Add(1)
	if len(t.arena) == cap(t.arena) {
		t.arena = append(t.arena, Node{})
	} else {
		t.arena = t.arena[:len(t.arena)+1]
	}
	n := &t.arena[len(t.arena)-1]
	*n = Node{Value: v, tape: t}
	t.nodes = append(t.nodes, n)
	return n
}

// op vends a node whose value is a fresh tape-owned r×c pool buffer. The
// node requires a gradient when any of its inputs does.
func (t *Tape) op(r, c int, in ...*Node) *Node {
	n := t.node(t.newOwned(r, c))
	for _, x := range in {
		n.requiresGrad = n.requiresGrad || x.requiresGrad
	}
	return n
}

// Const records a constant: no gradient flows into it, and ops whose inputs
// are all constant record no backward work.
func (t *Tape) Const(v *mat.Dense) *Node {
	return t.node(v)
}

// Param records a trainable parameter leaf. Its Grad is populated by
// Backward; the caller owns applying the update.
func (t *Tape) Param(v *mat.Dense) *Node {
	n := t.node(v)
	n.requiresGrad = true
	return n
}

// Reset clears the recorded graph while keeping the node arena, so the next
// step records without re-growing the slices. The buffers the tape allocated
// are abandoned to the garbage collector — use Release to recycle them.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.arena = t.arena[:0]
	t.owned = t.owned[:0]
}

// Release returns every buffer the tape allocated (forward values, gradients
// and op-internal state) to the mat buffer pool, then Resets. Call it after
// the optimizer step has consumed the gradients: no Value or Grad of a
// non-leaf node, nor any slice derived from one, may be used afterwards.
// Leaf (Const/Param) values are caller-owned and untouched.
func (t *Tape) Release() {
	for i, m := range t.owned {
		mat.PutDense(m)
		t.owned[i] = nil
	}
	t.Reset()
}

// Backward runs reverse-mode differentiation from the scalar node loss,
// which must be 1×1 and recorded on this tape. After it returns, every node
// the loss depends on that has a Param upstream carries its gradient; a loss
// computed from constants alone fills none.
func (t *Tape) Backward(loss *Node) error {
	if loss.Value.Rows() != 1 || loss.Value.Cols() != 1 {
		return fmt.Errorf("ad: Backward needs a scalar loss, got %dx%d", loss.Value.Rows(), loss.Value.Cols())
	}
	idx := -1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i] == loss {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("ad: loss node not recorded on this tape")
	}
	backwardCount.Add(1)
	if !loss.requiresGrad {
		return nil
	}
	seed := loss.grad()
	seed.Zero()
	seed.Set(0, 0, 1)
	for i := idx; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad == nil || n.backward == nil {
			continue
		}
		n.backward()
	}
	return nil
}

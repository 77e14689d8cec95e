package nn

import (
	"fmt"

	"fedomd/internal/mat"
)

// infer.go is the serving-side forward pass of the paper's OrthoGCN: no
// tape, no gradients, no dropout — just the per-node logits of a trained
// model, restructured so a batch of node queries costs one SelectRowsInto
// plus one dense matmul on a pooled buffer.
//
// The restructuring exploits associativity: the output GCNConv is
// S̃·(Z·W_out) = (S̃Z)·W_out, so all propagation over the graph folds into a
// precomputed node-representation table S̃·Z^{L-1} at build time (one row per
// node, already propagated), leaving only the head W_out to run per query.
// The first layer is computed by the training path's layerOne (model.go), in
// the order its rule picks for the global S̃ and X.
//
// The fold is exact up to rounding: the head's (S̃Z)·W sums in another order
// than the tape's S̃·(Z·W), so an Inferencer matches the tape forward
// (train=false) to 1e-9, which TestInferencerParity pins. A node's logits do
// not depend on which other nodes share its InferInto batch: a single-node
// query returns, bit for bit, that node's row of a full-table sweep.
//
// An Inferencer is an immutable snapshot: the head weight is deep-copied and
// the table is freshly computed, so later optimizer steps on the source
// model cannot corrupt in-flight inference — the property the serving
// plane's RCU model swap relies on (see internal/serve).

// Inferencer answers batched node-classification queries for one frozen
// model over one graph. It is never mutated after construction, and
// InferInto draws its scratch from the shared mat pool, so concurrent calls
// are safe (each call owns its buffers).
type Inferencer struct {
	table *mat.Dense // nodes × hidden, S̃·Z^{L-1}
	head  *mat.Dense // hidden × classes, an owned copy of W_out
}

// NewInferencer folds a trained OrthoGCN and its graph input into a serving
// snapshot. in must be the same Input the model trains on (the global graph
// when serving the aggregated global model); in.X is borrowed read-only,
// everything else is copied or freshly computed.
func NewInferencer(m *OrthoGCN, in Input) (*Inferencer, error) {
	if in.X == nil {
		return nil, fmt.Errorf("nn: inferencer needs features")
	}
	if in.S == nil {
		return nil, fmt.Errorf("nn: inferencer needs the propagation operator")
	}
	if in.X.Cols() != m.dims[0] {
		return nil, fmt.Errorf("nn: inferencer features have %d columns, model wants %d", in.X.Cols(), m.dims[0])
	}
	// Z¹ = σ(S̃·X·W_in) in layerOne's order, then per OrthoConv:
	// Z^l = σ(S̃(Z^{l-1}·W̃^l)) with the same spectral bound the forward pass
	// applies (Q̃ = Q/‖Q‖ when ‖Q‖ > 1); the table is the final propagation
	// S̃·Z^{L-1}, so the head is just W_out.
	var first layerOne
	first.prepare(in.S, in.X)
	z := first.product(m.params.Get("w_in"))
	reluInPlace(z)
	for l := 1; l < m.hiddenLayers; l++ {
		w := m.params.Get(fmt.Sprintf("w_ortho%d", l))
		if m.spectralBound {
			if norm := mat.SpectralNorm(w); norm > 1 {
				w = mat.Scale(1/norm, w)
			}
		}
		z = in.S.MulDense(mat.MatMul(z, w))
		reluInPlace(z)
	}
	return &Inferencer{
		table: in.S.MulDense(z),
		head:  m.params.Get("w_out").Clone(),
	}, nil
}

// Nodes returns the number of queryable node IDs (rows of the table).
func (f *Inferencer) Nodes() int { return f.table.Rows() }

// Classes returns the logit width.
func (f *Inferencer) Classes() int { return f.head.Cols() }

// TableDim returns the representation-table width — the per-query
// SelectRowsInto copy cost in floats.
func (f *Inferencer) TableDim() int { return f.table.Cols() }

// InferInto writes the logits of the idx'd nodes into out, which must be
// len(idx)×Classes(). Scratch comes from the mat pool and is returned before
// InferInto does, so the steady state allocates nothing (pinned by
// TestInferIntoAllocs). idx is validated up front; on error out is untouched.
func (f *Inferencer) InferInto(out *mat.Dense, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	if out.Rows() != len(idx) || out.Cols() != f.Classes() {
		return fmt.Errorf("nn: InferInto output %dx%d, want %dx%d", out.Rows(), out.Cols(), len(idx), f.Classes())
	}
	n := f.table.Rows()
	for _, id := range idx {
		if id < 0 || id >= n {
			return fmt.Errorf("nn: node %d out of range [0,%d)", id, n)
		}
	}
	rows := mat.GetDense(len(idx), f.table.Cols())
	f.table.SelectRowsInto(rows, idx)
	mat.MatMulInto(out, rows, f.head)
	mat.PutDense(rows)
	return nil
}

// reluInPlace clamps negatives to zero, matching ad's ReLU semantics.
func reluInPlace(m *mat.Dense) {
	d := m.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

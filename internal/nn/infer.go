package nn

import (
	"fmt"

	"fedomd/internal/mat"
)

// infer.go is the serving-side forward pass: no tape, no gradients, no
// dropout — just the per-node logits of a trained model, restructured so a
// batch of node queries costs one SelectRowsInto plus a short chain of dense
// matmuls on pooled buffers.
//
// The restructuring exploits the same associativity the training path uses
// for its S̃X cache (model.go): every graph convolution ends in
// S̃·(Z·W) = (S̃Z)·W, so all propagation over the graph can be folded into a
// precomputed node-representation table at build time, leaving only the
// dense "head" — the final weight chain — to run per query. For the GCN
// family the table is S̃·Z^{L-1} (one row per node, already propagated) and
// the head is the single output weight; for SGC it is the cached S̃^K X; for
// the MLP it is the raw feature matrix and the head is the whole stack.
// The fold is exact: an Inferencer reproduces the tape forward (train=false)
// bit for bit, which TestInferencerParity pins.
//
// An Inferencer is an immutable snapshot: head weights are deep-copied and
// the table is freshly computed, so later optimizer steps on the source
// model cannot corrupt in-flight inference — the property the serving
// plane's RCU model swap relies on (see internal/serve).

// inferLayer is one dense head layer: out = act(in·W + b).
type inferLayer struct {
	w    *mat.Dense // owned copy
	b    *mat.Dense // optional 1×cols bias, owned
	relu bool
}

// Inferencer answers batched node-classification queries for one frozen
// model over one graph. It is safe for concurrent use by multiple
// goroutines only in the sense that it is never mutated after construction;
// InferInto itself draws scratch from the shared mat pool, so concurrent
// calls are safe too (each call owns its buffers).
type Inferencer struct {
	table   *mat.Dense // nodes × dim representation table
	layers  []inferLayer
	classes int
}

// NewInferencer folds a trained model and its graph input into a serving
// snapshot. in must be the same Input the model trains on (the global graph
// when serving the aggregated global model); in.X is borrowed read-only,
// everything else is copied or freshly computed.
func NewInferencer(m Model, in Input) (*Inferencer, error) {
	if in.X == nil {
		return nil, fmt.Errorf("nn: inferencer needs features")
	}
	if m.NeedsGraph() && in.S == nil {
		return nil, fmt.Errorf("nn: inferencer for a graph model needs the propagation operator")
	}
	switch mm := m.(type) {
	case *MLP:
		return newMLPInferencer(mm, in)
	case *GCN:
		return newGCNInferencer(mm, in)
	case *OrthoGCN:
		return newOrthoInferencer(mm, in)
	case *SGC:
		ps := mm.Params()
		w := ps.Get("w")
		return &Inferencer{
			table:   mm.propagated,
			layers:  []inferLayer{{w: w.Clone()}},
			classes: w.Cols(),
		}, nil
	default:
		return nil, fmt.Errorf("nn: no inference fold for model type %T", m)
	}
}

func newMLPInferencer(m *MLP, in Input) (*Inferencer, error) {
	if in.X.Cols() != m.dims[0] {
		return nil, fmt.Errorf("nn: inferencer features have %d columns, model wants %d", in.X.Cols(), m.dims[0])
	}
	layers := len(m.dims) - 1
	head := make([]inferLayer, 0, layers)
	for l := 0; l < layers; l++ {
		head = append(head, inferLayer{
			w:    m.params.Get(fmt.Sprintf("w%d", l)).Clone(),
			b:    m.params.Get(fmt.Sprintf("b%d", l)).Clone(),
			relu: l+1 < layers,
		})
	}
	return &Inferencer{table: in.X, layers: head, classes: m.dims[layers]}, nil
}

func newGCNInferencer(m *GCN, in Input) (*Inferencer, error) {
	if in.X.Cols() != m.dims[0] {
		return nil, fmt.Errorf("nn: inferencer features have %d columns, model wants %d", in.X.Cols(), m.dims[0])
	}
	layers := len(m.dims) - 1
	// Layer 1 reads the propagated features (S̃X)·W⁰, exactly like the
	// training path's propCache rewrite; a single-layer GCN is therefore
	// already in table·W form.
	prop := in.S.MulDense(in.X)
	w := m.params.At(layers - 1)
	if layers == 1 {
		return &Inferencer{table: prop, layers: []inferLayer{{w: w.Clone()}}, classes: w.Cols()}, nil
	}
	z := prop
	for l := 0; l+1 < layers; l++ {
		if l == 0 {
			z = mat.MatMul(prop, m.params.At(0))
		} else {
			z = in.S.MulDense(mat.MatMul(z, m.params.At(l)))
		}
		reluInPlace(z)
	}
	return &Inferencer{
		table:   in.S.MulDense(z),
		layers:  []inferLayer{{w: w.Clone()}},
		classes: w.Cols(),
	}, nil
}

func newOrthoInferencer(m *OrthoGCN, in Input) (*Inferencer, error) {
	if in.X.Cols() != m.dims[0] {
		return nil, fmt.Errorf("nn: inferencer features have %d columns, model wants %d", in.X.Cols(), m.dims[0])
	}
	// Z¹ = σ((S̃X)·W_in), then per OrthoConv: Z^l = σ(S̃(Z^{l-1}·W̃^l)) with
	// the same spectral bound the forward pass applies (Q̃ = Q/‖Q‖ when
	// ‖Q‖ > 1); the table is the final propagation S̃·Z^{L-1}, so the head
	// is just W_out.
	z := mat.MatMul(in.S.MulDense(in.X), m.params.Get("w_in"))
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
	wOut := m.params.Get("w_out")
	return &Inferencer{
		table:   in.S.MulDense(z),
		layers:  []inferLayer{{w: wOut.Clone()}},
		classes: wOut.Cols(),
	}, nil
}

// Nodes returns the number of queryable node IDs (rows of the table).
func (f *Inferencer) Nodes() int { return f.table.Rows() }

// Classes returns the logit width.
func (f *Inferencer) Classes() int { return f.classes }

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
	if out.Rows() != len(idx) || out.Cols() != f.classes {
		return fmt.Errorf("nn: InferInto output %dx%d, want %dx%d", out.Rows(), out.Cols(), len(idx), f.classes)
	}
	n := f.table.Rows()
	for _, id := range idx {
		if id < 0 || id >= n {
			return fmt.Errorf("nn: node %d out of range [0,%d)", id, n)
		}
	}
	b := len(idx)
	cur := mat.GetDense(b, f.table.Cols())
	f.table.SelectRowsInto(cur, idx)
	for l := 0; l+1 < len(f.layers); l++ {
		layer := f.layers[l]
		nxt := mat.GetDense(b, layer.w.Cols())
		mat.MatMulInto(nxt, cur, layer.w)
		if layer.b != nil {
			nxt.AXPYRowBroadcast(1, layer.b)
		}
		if layer.relu {
			reluInPlace(nxt)
		}
		mat.PutDense(cur)
		cur = nxt
	}
	last := f.layers[len(f.layers)-1]
	mat.MatMulInto(out, cur, last.w)
	mat.PutDense(cur)
	if last.b != nil {
		out.AXPYRowBroadcast(1, last.b)
	}
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

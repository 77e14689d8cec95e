package nn

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// Input bundles what a model's forward pass consumes: the node features and,
// for graph models, the normalised propagation operator S̃.
type Input struct {
	// S is the GCN-normalised adjacency D^{-1/2}(A+I)D^{-1/2}; nil for
	// structure-free models (MLP).
	S *sparse.CSR
	// X is the n×f feature matrix.
	X *mat.Dense
}

// Forward is the result of one model forward pass on a tape.
type Forward struct {
	// Logits is the pre-softmax n×classes output node.
	Logits *ad.Node
	// Hidden holds the post-activation hidden representations Z^1..Z^{L-1}
	// in layer order — the quantities the CMD constraint operates on.
	Hidden []*ad.Node
	// ParamNodes are the tape nodes of the model parameters, aligned with
	// Params registration order, so callers can read gradients after
	// Backward.
	ParamNodes []*ad.Node
	// OrthoNodes are the subset of ParamNodes subject to the orthogonality
	// penalty of eq. 6 (the square OrthoConv weights).
	OrthoNodes []*ad.Node
}

// Model is a trainable classifier over graph-structured (or plain) features.
type Model interface {
	// Params returns the live parameter set; optimisers mutate it in place.
	Params() *Params
	// Forward records the forward pass on tp. train toggles dropout.
	Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward
}

// paramNodes binds every matrix of ps onto the tape in order.
func paramNodes(tp *ad.Tape, ps *Params) []*ad.Node {
	nodes := make([]*ad.Node, ps.Len())
	for i := range nodes {
		nodes[i] = tp.Param(ps.At(i))
	}
	return nodes
}

// denseToSparseSpeed is the measured throughput ratio of the dense matmul
// kernel to the sparse SpMM kernel (README, Performance: mat.matmul_gflops
// 35.8 against sparse.spmm_gflops 4.36): one stored entry pushed through SpMM
// costs about as much as eight dense multiply-adds.
const denseToSparseSpeed = 8

// paperOrder is the one rule that picks the order of the first layer, for
// training, eval and serving alike. Eq. 7's S̃·X·W⁰ can run in the paper's
// order, S̃·(X·W⁰) over a CSR copy of X, at nnz(X)+nnz(S̃) entries per output
// column, or as the dense (S̃X)·W⁰ over a cached S̃X at n·f multiply-adds per
// column; the backward passes cost the same in each order. The rule picks the
// paper order when it is cheaper at the measured speed ratio. s is nil for
// the MLP, whose first layer is X·W⁰.
func paperOrder(s *sparse.CSR, x *mat.Dense) bool {
	work := 0
	for _, v := range x.Data() {
		if v != 0 {
			work++
		}
	}
	if s != nil {
		work += s.NNZ()
	}
	n, f := x.Dims()
	return denseToSparseSpeed*work < n*f
}

// layerOne computes a model's first-layer product S̃·X·W⁰ (X·W⁰ when S̃ is
// nil) in the order paperOrder picks for its operands. Both orders are exact
// rewrites of one another and differ only in rounding:
//
//   - paper order: S̃·(X·W⁰) as two SpMMs over a CSR copy of X. Their
//     backwards, S̃ᵀ·G and then Xᵀ·(S̃ᵀG) into W⁰, are the whole layer-1
//     backward.
//   - dense order: (S̃X)·W⁰ with S̃X computed once. The gradient stops at the
//     constant S̃X, so the backward is the one product (S̃X)ᵀ·G.
//
// The operands are constants of the client — S̃ is fixed by the local
// topology and X by the local features — so the order is chosen and its
// operand built once, on first use, keyed on operand identity: swapping in a
// different graph or feature matrix chooses again. It is not safe for
// concurrent use; models are driven by one goroutine at a time (the
// fed.Client contract).
type layerOne struct {
	s  *sparse.CSR
	x  *mat.Dense
	xs *sparse.CSR // CSR copy of X, paper order only
	sx *mat.Dense  // S̃X (X itself when s is nil), dense order only
}

// prepare chooses the order for (s, x) unless it is already chosen for them.
func (l *layerOne) prepare(s *sparse.CSR, x *mat.Dense) {
	if l.x != x || l.s != s || l.x == nil {
		l.build(s, x, paperOrder(s, x))
	}
}

// build sets up the given order for (s, x).
func (l *layerOne) build(s *sparse.CSR, x *mat.Dense, paper bool) {
	l.s, l.x, l.xs, l.sx = s, x, nil, nil
	switch {
	case paper:
		l.xs = sparse.FromDense(x)
	case s == nil:
		l.sx = x
	default:
		l.sx = s.MulDense(x)
	}
}

// forward records S̃·X·w on tp.
func (l *layerOne) forward(tp *ad.Tape, s *sparse.CSR, x *mat.Dense, w *ad.Node) *ad.Node {
	l.prepare(s, x)
	if l.xs == nil {
		return tp.MatMul(tp.Const(l.sx), w)
	}
	z := tp.SpMM(l.xs, w)
	if s != nil {
		z = tp.SpMM(s, z)
	}
	return z
}

// product computes S̃·X·w without a tape, with the same kernels in the same
// order as forward, so the Inferencer's first layer matches the tape's bit
// for bit.
func (l *layerOne) product(w *mat.Dense) *mat.Dense {
	if l.xs == nil {
		return mat.MatMul(l.sx, w)
	}
	z := l.xs.MulDense(w)
	if l.s != nil {
		z = l.s.MulDense(z)
	}
	return z
}

// MLP is the FedMLP base model: Dense→ReLU→(dropout)→Dense, no structure.
type MLP struct {
	params  *Params
	dims    []int
	dropout float64
	first   layerOne
}

// NewMLP builds an MLP with the given layer dimensions (at least in/out) and
// dropout probability applied after every hidden activation.
func NewMLP(rng *rand.Rand, dims []int, dropout float64) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least [in, out] dims, got %v", dims)
	}
	ps := NewParams()
	for l := 0; l+1 < len(dims); l++ {
		ps.Add(fmt.Sprintf("w%d", l), mat.Xavier(rng, dims[l], dims[l+1]))
		ps.Add(fmt.Sprintf("b%d", l), mat.New(1, dims[l+1]))
	}
	return &MLP{params: ps, dims: append([]int(nil), dims...), dropout: dropout}, nil
}

// Params implements Model.
func (m *MLP) Params() *Params { return m.params }

// Forward implements Model.
func (m *MLP) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	nodes := paramNodes(tp, m.params)
	var z *ad.Node
	var hidden []*ad.Node
	layers := len(m.dims) - 1
	for l := 0; l < layers; l++ {
		w := nodes[2*l]
		b := nodes[2*l+1]
		if l == 0 {
			z = m.first.forward(tp, nil, in.X, w)
		} else {
			z = tp.MatMul(z, w)
		}
		z = tp.AddRowVec(z, b)
		if l+1 < layers {
			z = tp.ReLU(z)
			hidden = append(hidden, z)
			z = tp.Dropout(z, m.dropout, rng, train)
		}
	}
	return &Forward{Logits: z, Hidden: hidden, ParamNodes: nodes}
}

// GCN is the Kipf & Welling graph convolutional network used by LocGCN and
// FedGCN: Z^{l+1} = σ(S̃ Z^l W^l).
type GCN struct {
	params  *Params
	dims    []int
	dropout float64
	first   layerOne
}

// NewGCN builds a GCN with the given layer dimensions.
func NewGCN(rng *rand.Rand, dims []int, dropout float64) (*GCN, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: GCN needs at least [in, out] dims, got %v", dims)
	}
	ps := NewParams()
	for l := 0; l+1 < len(dims); l++ {
		ps.Add(fmt.Sprintf("w%d", l), mat.Xavier(rng, dims[l], dims[l+1]))
	}
	return &GCN{params: ps, dims: append([]int(nil), dims...), dropout: dropout}, nil
}

// Params implements Model.
func (m *GCN) Params() *Params { return m.params }

// Forward implements Model.
func (m *GCN) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	if in.S == nil {
		panic("nn: GCN forward without propagation operator")
	}
	nodes := paramNodes(tp, m.params)
	var hidden []*ad.Node
	layers := len(m.dims) - 1
	var z *ad.Node
	for l := 0; l < layers; l++ {
		if l == 0 {
			z = m.first.forward(tp, in.S, in.X, nodes[0])
		} else {
			z = tp.SpMM(in.S, tp.MatMul(z, nodes[l]))
		}
		if l+1 < layers {
			z = tp.ReLU(z)
			hidden = append(hidden, z)
			z = tp.Dropout(z, m.dropout, rng, train)
		}
	}
	return &Forward{Logits: z, Hidden: hidden, ParamNodes: nodes}
}

// OrthoGCN is the paper's local model (Table 1): a GCNConv from input to
// hidden width, (hiddenLayers−1) square OrthoConv layers whose weights carry
// the orthogonality penalty of eq. 6 and are spectrally normalised in the
// forward pass (Q̃ = Q/‖Q‖_F, eq. 8), and a closing GCNConv to the output
// classes.
type OrthoGCN struct {
	params        *Params
	hiddenLayers  int
	dims          [3]int // in, hidden, out
	dropout       float64
	spectralBound bool
	first         layerOne
}

// SetSpectralBound toggles the Q̃ = Q/‖Q‖ bounding of the OrthoConv weights
// in the forward pass (on by default). Exposed for the design ablation.
func (m *OrthoGCN) SetSpectralBound(on bool) { m.spectralBound = on }

// NewOrthoGCN builds the Table 1 model. hiddenLayers is the number of hidden
// representations (the paper's "2-hidden" default means hiddenLayers = 2:
// one GCNConv plus one OrthoConv before the output GCNConv).
func NewOrthoGCN(rng *rand.Rand, in, hidden, out, hiddenLayers int, dropout float64) (*OrthoGCN, error) {
	if hiddenLayers < 1 {
		return nil, fmt.Errorf("nn: OrthoGCN needs at least one hidden layer, got %d", hiddenLayers)
	}
	if in <= 0 || hidden <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: OrthoGCN dims must be positive: %d %d %d", in, hidden, out)
	}
	ps := NewParams()
	ps.Add("w_in", mat.Xavier(rng, in, hidden))
	for l := 1; l < hiddenLayers; l++ {
		// OrthoConv weights start on the orthogonal manifold (Newton–Schulz
		// projection of a Xavier draw): an orthogonal middle layer is
		// initially an isometry, so depth neither contracts nor distorts the
		// signal, and the orthogonality penalty only has to keep the weight
		// near the manifold rather than find it.
		w := mat.Xavier(rng, hidden, hidden)
		if q, err := mat.NewtonSchulz(w, 40); err == nil {
			w = q
		}
		ps.Add(fmt.Sprintf("w_ortho%d", l), w)
	}
	ps.Add("w_out", mat.Xavier(rng, hidden, out))
	return &OrthoGCN{
		params:        ps,
		hiddenLayers:  hiddenLayers,
		dims:          [3]int{in, hidden, out},
		dropout:       dropout,
		spectralBound: true,
	}, nil
}

// Params implements Model.
func (m *OrthoGCN) Params() *Params { return m.params }

// Forward implements Model. Hidden gets exactly hiddenLayers entries:
// Z^1 (after the input GCNConv) and one per OrthoConv.
func (m *OrthoGCN) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	if in.S == nil {
		panic("nn: OrthoGCN forward without propagation operator")
	}
	nodes := paramNodes(tp, m.params)
	// Layer 1: Z¹ = σ(S̃ X W⁰)  (eq. 7), in the order layerOne picks for
	// this client's operands.
	z := tp.ReLU(m.first.forward(tp, in.S, in.X, nodes[0]))
	hidden := []*ad.Node{z}
	var orthoNodes []*ad.Node
	z = tp.Dropout(z, m.dropout, rng, train)
	// Middle layers: Z^l = σ(S̃ Z^{l-1} W̃^l) with spectrally bounded square
	// weights (eq. 8 with the learnable Q realised as a d_h×d_h weight; see
	// Table 1's OrthoConv rows). The bound divides by the spectral norm when
	// it exceeds 1; as the orthogonality penalty drives W Wᵀ → I the largest
	// singular value approaches 1 and the bound becomes the identity, so the
	// layer neither explodes nor contracts activations.
	for l := 1; l < m.hiddenLayers; l++ {
		w := nodes[l]
		wn := w
		if m.spectralBound {
			if norm := mat.SpectralNorm(w.Value); norm > 1 {
				wn = tp.Scale(1/norm, w)
			}
		}
		// The orthogonality penalty acts on the matrix the forward pass
		// actually uses, so the loss cannot be dodged by rescaling W.
		orthoNodes = append(orthoNodes, wn)
		z = tp.ReLU(tp.SpMM(in.S, tp.MatMul(z, wn)))
		hidden = append(hidden, z)
		z = tp.Dropout(z, m.dropout, rng, train)
	}
	// Output layer: logits = S̃ Z^{L-1} W^{L} (softmax fused into the loss,
	// eq. 9).
	logits := tp.SpMM(in.S, tp.MatMul(z, nodes[len(nodes)-1]))
	return &Forward{Logits: logits, Hidden: hidden, ParamNodes: nodes, OrthoNodes: orthoNodes}
}

package nn

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// SGC is the simplified graph convolution of Wu et al. (2019), which the
// paper leans on in §4.3's derivation ("without considering the activation
// function ... as SGC did"): logits = S̃^K · X · W, a single linear layer
// over K-hop pre-propagated features. The propagation S̃^K·X is computed
// once at construction, so training is as cheap as logistic regression.
type SGC struct {
	params     *Params
	propagated *mat.Dense // S̃^K X, cached
	hops       int
}

// NewSGC builds an SGC model with K propagation hops over the normalised
// operator s applied to features x.
func NewSGC(rng *rand.Rand, s *sparse.CSR, x *mat.Dense, classes, hops int) (*SGC, error) {
	if hops < 1 {
		return nil, fmt.Errorf("nn: SGC needs at least 1 hop, got %d", hops)
	}
	if classes < 1 {
		return nil, fmt.Errorf("nn: SGC needs at least 1 class")
	}
	if s == nil {
		return nil, fmt.Errorf("nn: SGC needs a propagation operator")
	}
	prop := x
	for k := 0; k < hops; k++ {
		prop = s.MulDense(prop)
	}
	ps := NewParams()
	ps.Add("w", mat.Xavier(rng, x.Cols(), classes))
	return &SGC{params: ps, propagated: prop, hops: hops}, nil
}

// Params implements Model.
func (m *SGC) Params() *Params { return m.params }

// NeedsGraph implements Model. The graph is baked into the cached
// propagation, so the forward pass itself needs no operator.
func (m *SGC) NeedsGraph() bool { return false }

// Forward implements Model. Input is ignored beyond construction: SGC's
// whole point is that propagation happened ahead of time.
func (m *SGC) Forward(tp *ad.Tape, _ Input, _ *rand.Rand, _ bool) *Forward {
	nodes := paramNodes(tp, m.params)
	logits := tp.MatMul(tp.Const(m.propagated), nodes[0])
	return &Forward{Logits: logits, ParamNodes: nodes}
}

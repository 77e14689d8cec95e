package nn

import (
	"fmt"
	"math"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

// Adam is the Adam optimiser (Kingma & Ba) with decoupled weight decay,
// the configuration the GCN literature trains with.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m []*mat.Dense
	v []*mat.Dense
}

// NewAdam returns Adam with the standard defaults (β₁=0.9, β₂=0.999,
// ε=1e-8).
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Step updates params in place using the gradients on nodes, which must
// align with the params registration order.
func (o *Adam) Step(params *Params, nodes []*ad.Node) error {
	if len(nodes) != params.Len() {
		return fmt.Errorf("nn: Adam got %d grads for %d params", len(nodes), params.Len())
	}
	if o.m == nil {
		o.m = make([]*mat.Dense, params.Len())
		o.v = make([]*mat.Dense, params.Len())
		for i := 0; i < params.Len(); i++ {
			w := params.At(i)
			o.m[i] = mat.New(w.Rows(), w.Cols())
			o.v[i] = mat.New(w.Rows(), w.Cols())
		}
	}
	if len(o.m) != params.Len() {
		return fmt.Errorf("nn: Adam state built for %d params, got %d", len(o.m), params.Len())
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i := 0; i < params.Len(); i++ {
		w := params.At(i)
		if o.WeightDecay != 0 {
			w.ScaleInPlace(1 - o.LR*o.WeightDecay)
		}
		g := nodes[i].Grad
		if g == nil {
			continue
		}
		mw, vw := o.m[i].Data(), o.v[i].Data()
		gd := g.Data()
		wd := w.Data()
		for k := range gd {
			mw[k] = o.Beta1*mw[k] + (1-o.Beta1)*gd[k]
			vw[k] = o.Beta2*vw[k] + (1-o.Beta2)*gd[k]*gd[k]
			mhat := mw[k] / bc1
			vhat := vw[k] / bc2
			wd[k] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
	return nil
}

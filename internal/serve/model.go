package serve

import (
	"errors"
	"fmt"
	"math/rand"

	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/nn"
	"fedomd/internal/sparse"
)

// ErrNoSpec means the checkpoint predates the model-config header and the
// caller did not supply an architecture out of band.
var ErrNoSpec = errors.New("serve: checkpoint has no model spec (pre-header snapshot); supply the architecture explicitly")

// BuildInferencer reconstructs the FedOMD model a spec describes, loads
// params into it, and folds it with the graph into a serving snapshot. Any
// other model kind is refused: no trainer writes one. The rng seeding the
// constructor is irrelevant — every weight is overwritten by the
// checkpointed params.
func BuildInferencer(spec *fed.ModelSpec, params *nn.Params, g *graph.Graph) (*nn.Inferencer, error) {
	if spec == nil {
		return nil, ErrNoSpec
	}
	if spec.Model != "fedomd" {
		return nil, fmt.Errorf("serve: cannot serve model kind %q: only \"fedomd\" checkpoints are servable", spec.Model)
	}
	if spec.Features > 0 && g.NumFeatures() != spec.Features {
		return nil, fmt.Errorf("serve: graph has %d features, model wants %d", g.NumFeatures(), spec.Features)
	}
	if spec.Classes > 0 && g.NumClasses != spec.Classes {
		return nil, fmt.Errorf("serve: graph has %d classes, model wants %d", g.NumClasses, spec.Classes)
	}
	m, err := nn.NewOrthoGCN(rand.New(rand.NewSource(1)), spec.Features, spec.Hidden, spec.Classes, spec.HiddenLayers, spec.Dropout)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding fedomd model: %w", err)
	}
	m.SetSpectralBound(spec.SpectralBound)
	if err := m.Params().CopyFrom(params); err != nil {
		return nil, fmt.Errorf("serve: checkpoint params do not fit a fedomd model built from its own spec: %w", err)
	}
	s, err := sparse.GCNNormalize(g.Adj)
	if err != nil {
		return nil, fmt.Errorf("serve: normalizing adjacency: %w", err)
	}
	return nn.NewInferencer(m, nn.Input{S: s, X: g.Features})
}

// InferencerFromCheckpoint is the whole load path: params + header out of
// the checkpoint, model rebuilt, graph folded in.
func InferencerFromCheckpoint(ck *fed.Checkpoint, g *graph.Graph) (*nn.Inferencer, error) {
	params, err := ck.GlobalParams()
	if err != nil {
		return nil, err
	}
	return BuildInferencer(ck.Spec, params, g)
}

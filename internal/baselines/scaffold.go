package baselines

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// ScaffoldClient implements SCAFFOLD (Karimireddy et al. 2020) on the FedMLP
// base model: each local SGD step uses the variance-reduced gradient
// g − c_i + c, and after local training the client control variate is
// refreshed with Option II,
//
//	c_i ← c_i − c + (w_global − w_local)/(K·η),
//
// and exchanged through the runtime's auxiliary-state channel. The server
// averages the c_i with the weights it averages the models with (NumSamples,
// at least 1), as Karimireddy et al. average both over the same clients
// with the same weights, so a party with no training nodes, which takes no
// step and keeps c_i at zero, carries no more weight in c than in w.
type ScaffoldClient struct {
	name string
	g    *graph.Graph
	in   nn.Input
	mlp  *nn.MLP
	rng  *rand.Rand
	opts Options
	tape *ad.Tape

	ci          *nn.Params // client control variate
	cGlobal     *nn.Params // server control variate
	roundAnchor *nn.Params // weights at round start
	preds       predCache
}

var (
	_ fed.Client    = (*ScaffoldClient)(nil)
	_ fed.AuxClient = (*ScaffoldClient)(nil)
)

// NewScaffold builds a SCAFFOLD party.
func NewScaffold(name string, g *graph.Graph, opts Options, seed int64) (*ScaffoldClient, error) {
	opts = opts.withDefaults()
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("baselines: scaffold client %s has an empty graph", name)
	}
	rng := rand.New(rand.NewSource(seed))
	mlp, err := nn.NewMLP(rng, []int{g.NumFeatures(), opts.Hidden, g.NumClasses}, opts.Dropout)
	if err != nil {
		return nil, err
	}
	zero := func() *nn.Params {
		p := mlp.Params().Clone()
		p.Zero()
		return p
	}
	return &ScaffoldClient{
		name: name, g: g, in: nn.Input{X: g.Features}, mlp: mlp, rng: rng, opts: opts,
		ci: zero(), cGlobal: zero(), tape: ad.NewTape(),
	}, nil
}

// Name implements fed.Client.
func (s *ScaffoldClient) Name() string { return s.name }

// NumSamples implements fed.Client.
func (s *ScaffoldClient) NumSamples() int { return len(s.g.TrainMask) }

// Params implements fed.Client.
func (s *ScaffoldClient) Params() *nn.Params {
	s.preds.drop()
	return s.mlp.Params()
}

// SetParams implements fed.Client, snapshotting the round anchor.
func (s *ScaffoldClient) SetParams(global *nn.Params) error {
	s.preds.drop()
	if err := s.mlp.Params().CopyFrom(global); err != nil {
		return err
	}
	s.roundAnchor = global.Clone()
	return nil
}

// TrainLocal implements fed.Client with variance-reduced SGD steps.
func (s *ScaffoldClient) TrainLocal(round int) (float64, error) {
	if len(s.g.TrainMask) == 0 {
		return 0, nil
	}
	params := s.mlp.Params()
	var last float64
	steps := s.opts.LocalEpochs
	for e := 0; e < steps; e++ {
		l, err := s.trainStep(params)
		if err != nil {
			return 0, err
		}
		last = l
	}
	// Option II control-variate refresh.
	if s.roundAnchor != nil {
		scale := 1 / (float64(steps) * s.opts.LR)
		for i := 0; i < s.ci.Len(); i++ {
			ci := s.ci.At(i)
			ci.SubInPlace(s.cGlobal.At(i))
			diff := mat.GetDense(ci.Rows(), ci.Cols())
			mat.SubInto(diff, s.roundAnchor.At(i), params.At(i))
			ci.AXPY(scale, diff)
			mat.PutDense(diff)
		}
	}
	return last, nil
}

// trainStep performs one variance-reduced step on the reused tape.
func (s *ScaffoldClient) trainStep(params *nn.Params) (float64, error) {
	s.preds.drop()
	tp := s.tape
	defer tp.Release()
	f := s.mlp.Forward(tp, s.in, s.rng, true)
	loss := tp.SoftmaxCrossEntropy(f.Logits, s.g.Labels, s.g.TrainMask)
	last := loss.Value.At(0, 0)
	if err := tp.Backward(loss); err != nil {
		return 0, fmt.Errorf("baselines: %s backward: %w", s.name, err)
	}
	// w ← w − η (g − c_i + c), plus decoupled weight decay. The corrected
	// gradient lives in a pooled scratch buffer (zeroed on vend).
	for i := 0; i < params.Len(); i++ {
		w := params.At(i)
		if s.opts.WeightDecay != 0 {
			w.ScaleInPlace(1 - s.opts.LR*s.opts.WeightDecay)
		}
		corrected := mat.GetDense(w.Rows(), w.Cols())
		if g := f.ParamNodes[i].Grad; g != nil {
			corrected.AddInPlace(g)
		}
		corrected.SubInPlace(s.ci.At(i))
		corrected.AddInPlace(s.cGlobal.At(i))
		w.AXPY(-s.opts.LR, corrected)
		mat.PutDense(corrected)
	}
	return last, nil
}

// UploadAux implements fed.AuxClient: the server averages client control
// variates into c.
func (s *ScaffoldClient) UploadAux() *nn.Params { return s.ci.Clone() }

// DownloadAux implements fed.AuxClient.
func (s *ScaffoldClient) DownloadAux(global *nn.Params) error {
	return s.cGlobal.CopyFrom(global)
}

// Accuracy evaluates the current model on a node mask.
func (s *ScaffoldClient) Accuracy(mask []int) (int, int) {
	return s.preds.accuracy(mask, s.g.Labels, func() []int {
		tp := s.tape
		defer tp.Release()
		return mat.ArgmaxRows(s.mlp.Forward(tp, s.in, s.rng, false).Logits.Value)
	})
}

// EvalVal implements fed.Client.
func (s *ScaffoldClient) EvalVal() (int, int) { return s.Accuracy(s.g.ValMask) }

// EvalTest implements fed.Client.
func (s *ScaffoldClient) EvalTest() (int, int) { return s.Accuracy(s.g.TestMask) }

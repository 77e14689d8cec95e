// Package baselines implements the seven comparison systems of the paper's
// evaluation (§5.1): FedMLP, FedProx, SCAFFOLD, LocGCN, FedGCN, FedLIT and
// FedSage+. All expose fed.Client implementations so the same federated
// runtime drives every row of Table 4.
package baselines

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/sparse"
)

// Options configures the baseline clients. Zero values fall back to the
// defaults the paper describes (2-layer models, hidden 64).
type Options struct {
	Hidden      int
	LR          float64
	WeightDecay float64
	Dropout     float64
	LocalEpochs int
	// ProxMu enables FedProx's proximal term (μ/2)·‖w − w_global‖² when > 0.
	ProxMu float64
}

func (o Options) withDefaults() Options {
	if o.Hidden == 0 {
		o.Hidden = 64
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.LocalEpochs == 0 {
		o.LocalEpochs = 1
	}
	return o
}

// Client is the shared implementation behind FedMLP, FedProx, LocGCN and
// FedGCN: a model trained with masked cross-entropy, optionally with a
// proximal term against the last received global weights.
type Client struct {
	name  string
	g     *graph.Graph
	in    nn.Input
	model nn.Model
	opt   *nn.Adam
	rng   *rand.Rand
	opts  Options
	// tape is the reusable per-client autodiff arena (the server never calls
	// a client concurrently with itself).
	tape *ad.Tape

	// globalSnapshot is the last broadcast model, anchoring FedProx's
	// proximal term.
	globalSnapshot *nn.Params
	preds          predCache
}

var _ fed.Client = (*Client)(nil)

// NewFedMLP builds the FedMLP baseline party: a 2-layer MLP with hidden
// dimension 64 that ignores graph structure.
func NewFedMLP(name string, g *graph.Graph, opts Options, seed int64) (*Client, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	model, err := nn.NewMLP(rng, []int{g.NumFeatures(), opts.Hidden, g.NumClasses}, opts.Dropout)
	if err != nil {
		return nil, err
	}
	return newClient(name, g, model, nn.Input{X: g.Features}, opts, rng)
}

// NewFedProx builds the FedProx baseline: FedMLP plus the proximal term. A
// non-positive mu defaults to 0.01.
func NewFedProx(name string, g *graph.Graph, opts Options, seed int64) (*Client, error) {
	if opts.ProxMu <= 0 {
		opts.ProxMu = 0.01
	}
	return NewFedMLP(name, g, opts, seed)
}

// NewGCNClient builds the 2-layer GCN party used by both LocGCN (driven with
// fed.RunLocalOnly) and FedGCN (driven with fed.Run).
func NewGCNClient(name string, g *graph.Graph, opts Options, seed int64) (*Client, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	model, err := nn.NewGCN(rng, []int{g.NumFeatures(), opts.Hidden, g.NumClasses}, opts.Dropout)
	if err != nil {
		return nil, err
	}
	s, err := sparse.GCNNormalize(g.Adj)
	if err != nil {
		return nil, err
	}
	return newClient(name, g, model, nn.Input{S: s, X: g.Features}, opts, rng)
}

func newClient(name string, g *graph.Graph, model nn.Model, in nn.Input, opts Options, rng *rand.Rand) (*Client, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("baselines: client %s has an empty graph", name)
	}
	return &Client{
		name:  name,
		g:     g,
		in:    in,
		model: model,
		opt:   nn.NewAdam(opts.LR, opts.WeightDecay),
		rng:   rng,
		opts:  opts,
		tape:  ad.NewTape(),
	}, nil
}

// Name implements fed.Client.
func (c *Client) Name() string { return c.name }

// NumSamples implements fed.Client.
func (c *Client) NumSamples() int { return len(c.g.TrainMask) }

// Params implements fed.Client.
func (c *Client) Params() *nn.Params {
	c.preds.drop()
	return c.model.Params()
}

// SetParams implements fed.Client; it also refreshes the proximal anchor.
func (c *Client) SetParams(global *nn.Params) error {
	c.preds.drop()
	if err := c.model.Params().CopyFrom(global); err != nil {
		return err
	}
	if c.opts.ProxMu > 0 {
		c.globalSnapshot = global.Clone()
	}
	return nil
}

// TrainLocal implements fed.Client.
func (c *Client) TrainLocal(round int) (float64, error) {
	if len(c.g.TrainMask) == 0 {
		return 0, nil
	}
	var last float64
	for e := 0; e < c.opts.LocalEpochs; e++ {
		l, err := c.trainStep()
		if err != nil {
			return 0, err
		}
		last = l
	}
	return last, nil
}

// trainStep runs one gradient step on the reused tape and recycles its
// buffers once the optimizer has consumed the gradients.
func (c *Client) trainStep() (float64, error) {
	c.preds.drop()
	tp := c.tape
	defer tp.Release()
	f := c.model.Forward(tp, c.in, c.rng, true)
	loss := tp.SoftmaxCrossEntropy(f.Logits, c.g.Labels, c.g.TrainMask)
	if c.opts.ProxMu > 0 && c.globalSnapshot != nil {
		loss = tp.Add(loss, c.proxTerm(tp, f.ParamNodes))
	}
	last := loss.Value.At(0, 0)
	if err := tp.Backward(loss); err != nil {
		return 0, fmt.Errorf("baselines: %s backward: %w", c.name, err)
	}
	if err := c.opt.Step(c.model.Params(), f.ParamNodes); err != nil {
		return 0, fmt.Errorf("baselines: %s optimiser: %w", c.name, err)
	}
	return last, nil
}

// proxTerm records (μ/2)·Σ‖w − w_global‖²_F on the tape.
func (c *Client) proxTerm(tp *ad.Tape, nodes []*ad.Node) *ad.Node {
	var term *ad.Node
	for i, n := range nodes {
		anchor := tp.Const(c.globalSnapshot.At(i))
		sq := tp.SumSquares(tp.Sub(n, anchor))
		if term == nil {
			term = sq
		} else {
			term = tp.Add(term, sq)
		}
	}
	return tp.Scale(c.opts.ProxMu/2, term)
}

// predCache shares one eval-mode forward between EvalVal and EvalTest, which
// the runtime always asks of the same weights: the first call after a weight
// change runs predict and keeps the row argmax of its logits. A client drops
// it wherever its weights can change — SetParams, every training step, and
// Params, which hands out the live weights.
type predCache struct {
	valid bool
	pred  []int
}

func (p *predCache) drop() { p.valid = false }

// accuracy counts the mask nodes whose kept prediction matches labels;
// predict is the client's dropout-free forward reduced to a class per node.
func (p *predCache) accuracy(mask, labels []int, predict func() []int) (int, int) {
	if len(mask) == 0 {
		return 0, 0
	}
	if !p.valid {
		p.pred, p.valid = predict(), true
	}
	correct := 0
	for _, i := range mask {
		if p.pred[i] == labels[i] {
			correct++
		}
	}
	return correct, len(mask)
}

// Accuracy evaluates the current model on a node mask.
func (c *Client) Accuracy(mask []int) (int, int) {
	return c.preds.accuracy(mask, c.g.Labels, func() []int {
		tp := c.tape
		defer tp.Release()
		return mat.ArgmaxRows(c.model.Forward(tp, c.in, c.rng, false).Logits.Value)
	})
}

// EvalVal implements fed.Client.
func (c *Client) EvalVal() (int, int) { return c.Accuracy(c.g.ValMask) }

// EvalTest implements fed.Client.
func (c *Client) EvalTest() (int, int) { return c.Accuracy(c.g.TestMask) }

// Package core implements the paper's contribution: the FedOMD client — an
// orthogonal GCN (Table 1) trained under the three-part objective of eq. 12,
//
//	L_i = CE(Z_i^L, Y_i) + α·L_ortho_i + β·d_CMD_i,
//
// where L_ortho is the orthogonality reconstruction loss (eq. 6) on the
// OrthoConv weights and d_CMD is the truncated central-moment discrepancy
// (eq. 11) between the client's per-layer hidden statistics and the global
// statistics assembled by the server through Algorithm 1's 2-round exchange.
package core

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
	"fedomd/internal/sparse"
)

// Config holds FedOMD's hyper-parameters. The defaults (see DefaultConfig)
// are the paper's experimental settings (§5.1).
type Config struct {
	// Hidden is the hidden width d_h.
	Hidden int
	// HiddenLayers is the number of hidden representations ("2-hidden" in
	// Table 7 means 2: one input GCNConv + one OrthoConv).
	HiddenLayers int
	// Alpha weights the orthogonality loss (paper: 0.0005).
	Alpha float64
	// Beta weights the CMD loss (paper: 10).
	Beta float64
	// MaxOrder truncates the CMD series (paper: 5).
	MaxOrder int
	// LR and WeightDecay configure Adam (paper: weight decay 1e-4).
	LR          float64
	WeightDecay float64
	// Dropout probability on hidden activations.
	Dropout float64
	// LocalEpochs is the number of gradient steps per communication round
	// (paper: communication interval 1).
	LocalEpochs int
	// UseOrtho / UseCMD are the ablation switches of Table 6.
	UseOrtho bool
	UseCMD   bool
	// RangeA/RangeB bound the hidden activations for the CMD weights
	// 1/(b−a)^j ("the elements of Z are limited to [a, b]", eq. 11).
	RangeA, RangeB float64
	// AdaptiveRange widens RangeB to the largest hidden activation the
	// client observed during the statistics exchange. ReLU activations are
	// unbounded, so a fixed [0, 1] underestimates b, removes the 1/(b−a)^j
	// damping of the higher moments, and lets the CMD gradient swamp the
	// cross-entropy signal at the paper's 1% label rate.
	AdaptiveRange bool
	// SquaredCMD uses the smooth ‖·‖² variant of the CMD terms whose
	// gradient vanishes as the distributions converge (see
	// moments.CMDLossSquared). The plain eq. 11 form is available for the
	// fidelity ablation.
	SquaredCMD bool
}

// DefaultConfig returns the paper's experimental settings (§5.1: α = 0.0005,
// β = 10, weight decay 1e-4, hidden width 64, 2 hidden layers, CMD order 5).
// The paper does not state a learning rate or dropout; LR = 0.05 and dropout
// 0.2 were selected by a sweep on the synthetic Cora stand-in (the deeper
// OrthoGCN needs a larger step than a 2-layer GCN at one local epoch per
// round).
func DefaultConfig() Config {
	return Config{
		Hidden:        64,
		HiddenLayers:  2,
		Alpha:         0.0005,
		Beta:          10,
		MaxOrder:      moments.DefaultMaxOrder,
		LR:            0.05,
		WeightDecay:   1e-4,
		Dropout:       0.2,
		LocalEpochs:   1,
		UseOrtho:      true,
		UseCMD:        true,
		RangeA:        0,
		RangeB:        1,
		AdaptiveRange: true,
		SquaredCMD:    true,
	}
}

func (c Config) validate() error {
	switch {
	case c.Hidden <= 0:
		return fmt.Errorf("core: Hidden must be positive")
	case c.HiddenLayers < 1:
		return fmt.Errorf("core: HiddenLayers must be >= 1")
	case c.MaxOrder < 2:
		return fmt.Errorf("core: MaxOrder must be >= 2")
	case c.LR <= 0:
		return fmt.Errorf("core: LR must be positive")
	case c.LocalEpochs <= 0:
		return fmt.Errorf("core: LocalEpochs must be positive")
	case c.RangeB <= c.RangeA:
		return fmt.Errorf("core: activation range [%v,%v] empty", c.RangeA, c.RangeB)
	}
	return nil
}

// Client is one FedOMD party. It implements fed.Client and fed.MomentClient.
type Client struct {
	name  string
	cfg   Config
	g     *graph.Graph
	s     *sparse.CSR
	model *nn.OrthoGCN
	opt   *nn.Adam
	rng   *rand.Rand
	// tape is the client's reusable autodiff arena. fed.Server never calls a
	// client concurrently with itself, so one tape per client is safe; every
	// forward pass records on it and Releases its buffers back to the mat
	// pool once the results have been consumed.
	tape *ad.Tape
	// ev is the eval pass over the current weights (see evalPass).
	ev evalPass

	globalMeans   []*mat.Dense
	globalCentral [][]*mat.Dense
	obsMax        float64 // largest hidden activation seen in the exchange
	last          Losses
}

var (
	_ fed.Client       = (*Client)(nil)
	_ fed.MomentClient = (*Client)(nil)
)

// NewClient builds a FedOMD party over its local subgraph.
func NewClient(name string, g *graph.Graph, cfg Config, seed int64) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: client %s has an empty graph", name)
	}
	s, err := sparse.GCNNormalize(g.Adj)
	if err != nil {
		return nil, fmt.Errorf("core: client %s: %w", name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	model, err := nn.NewOrthoGCN(rng, g.NumFeatures(), cfg.Hidden, g.NumClasses, cfg.HiddenLayers, cfg.Dropout)
	if err != nil {
		return nil, fmt.Errorf("core: client %s: %w", name, err)
	}
	return &Client{
		name:  name,
		cfg:   cfg,
		g:     g,
		s:     s,
		model: model,
		opt:   nn.NewAdam(cfg.LR, cfg.WeightDecay),
		rng:   rng,
		tape:  ad.NewTape(),
	}, nil
}

// Name implements fed.Client.
func (c *Client) Name() string { return c.name }

// NumSamples implements fed.Client: the number of labelled training nodes.
func (c *Client) NumSamples() int { return len(c.g.TrainMask) }

// Params implements fed.Client. The caller may write through the returned
// handle, so the eval pass is dropped.
func (c *Client) Params() *nn.Params {
	c.ev.valid = false
	return c.model.Params()
}

// SetParams implements fed.Client.
func (c *Client) SetParams(global *nn.Params) error {
	c.ev.valid = false
	return c.model.Params().CopyFrom(global)
}

// forward runs the model on the local graph.
func (c *Client) forward(tp *ad.Tape, train bool) *nn.Forward {
	return c.model.Forward(tp, nn.Input{S: c.s, X: c.g.Features}, c.rng, train)
}

// evalPass is what one dropout-free forward leaves behind for EvalVal,
// EvalTest, LocalMeans and CentralAroundGlobal: Algorithm 1 asks all four of
// the same broadcast weights, so the first of them runs the forward and the
// others read it. It is per parameter version: valid is cleared by SetParams,
// by every optimiser step, and whenever Params or Model hands out the live
// weights — a handle kept across a later eval call is the one write it cannot
// see. hidden are client-owned copies, since Release recycles the tape's.
type evalPass struct {
	valid  bool
	hidden []*mat.Dense // Z^1..Z^{L-1} over all local nodes
	pred   []int        // row argmax of the logits
}

// eval returns the eval pass for the current weights, running it if a weight
// change dropped the last one.
func (c *Client) eval() *evalPass {
	ev := &c.ev
	if ev.valid {
		return ev
	}
	tp := c.tape
	defer tp.Release()
	f := c.forward(tp, false)
	if ev.hidden == nil {
		ev.hidden = make([]*mat.Dense, len(f.Hidden))
		for l, h := range f.Hidden {
			ev.hidden[l] = mat.New(h.Value.Dims())
		}
	}
	for l, h := range f.Hidden {
		ev.hidden[l].CopyFrom(h.Value)
	}
	ev.pred = mat.ArgmaxRows(f.Logits.Value)
	ev.valid = true
	return ev
}

// Losses captures the three components of eq. 12 from the last TrainLocal
// step, for diagnostics and the ablation experiments.
type Losses struct {
	CE, Ortho, CMD, Total float64
}

// TrainLocal implements fed.Client: LocalEpochs full-batch steps of the
// combined objective. A party without labelled nodes performs no step and
// reports zero loss (it still contributes its weights to aggregation).
func (c *Client) TrainLocal(round int) (float64, error) {
	if len(c.g.TrainMask) == 0 {
		return 0, nil
	}
	var total float64
	for e := 0; e < c.cfg.LocalEpochs; e++ {
		if err := c.trainStep(); err != nil {
			return 0, err
		}
		total = c.last.Total
	}
	return total, nil
}

// trainStep is one full-batch gradient step on the reused tape. All loss
// scalars are copied out and the optimizer consumes the gradients before the
// deferred Release recycles every tape buffer for the next step.
func (c *Client) trainStep() error {
	c.ev.valid = false
	tp := c.tape
	defer tp.Release()
	f := c.forward(tp, true)
	loss := tp.SoftmaxCrossEntropy(f.Logits, c.g.Labels, c.g.TrainMask)
	c.last.CE = loss.Value.At(0, 0)
	c.last.Ortho, c.last.CMD = 0, 0
	if c.cfg.UseOrtho && len(f.OrthoNodes) > 0 {
		// eq. 6: Σ_k ‖W_k W_kᵀ − I‖_F over the OrthoConv weights.
		ortho := tp.OrthoPenalty(f.OrthoNodes[0])
		for _, w := range f.OrthoNodes[1:] {
			ortho = tp.Add(ortho, tp.OrthoPenalty(w))
		}
		c.last.Ortho = ortho.Value.At(0, 0)
		loss = tp.Add(loss, tp.Scale(c.cfg.Alpha, ortho))
	}
	if c.cfg.UseCMD && c.globalMeans != nil {
		cmd, err := c.cmdLoss(tp, f)
		if err != nil {
			return err
		}
		if cmd != nil {
			c.last.CMD = cmd.Value.At(0, 0)
			loss = tp.Add(loss, tp.Scale(c.cfg.Beta, cmd))
		}
	}
	c.last.Total = loss.Value.At(0, 0)
	if err := tp.Backward(loss); err != nil {
		return fmt.Errorf("core: %s backward: %w", c.name, err)
	}
	if err := c.opt.Step(c.model.Params(), f.ParamNodes); err != nil {
		return fmt.Errorf("core: %s optimiser: %w", c.name, err)
	}
	return nil
}

// cmdLoss sums the per-layer CMD distances (Algorithm 1 line 19) against the
// stored global statistics.
func (c *Client) cmdLoss(tp *ad.Tape, f *nn.Forward) (*ad.Node, error) {
	a, b := c.cfg.RangeA, c.cfg.RangeB
	if c.cfg.AdaptiveRange && c.obsMax > b {
		b = c.obsMax
	}
	var loss *ad.Node
	layers := min(len(f.Hidden), len(c.globalMeans))
	for l := 0; l < layers; l++ {
		if c.globalMeans[l] == nil || len(c.globalCentral) <= l {
			continue
		}
		cmdLoss := moments.CMDLoss
		if c.cfg.SquaredCMD {
			cmdLoss = moments.CMDLossSquared
		}
		term, err := cmdLoss(tp, f.Hidden[l], c.globalMeans[l], c.globalCentral[l], a, b)
		if err != nil {
			return nil, fmt.Errorf("core: %s layer %d CMD: %w", c.name, l, err)
		}
		if loss == nil {
			loss = term
		} else {
			loss = tp.Add(loss, term)
		}
	}
	return loss, nil
}

// LocalMeans implements fed.MomentClient: Algorithm 1 lines 3-8. The means
// are taken over all local nodes' hidden representations (every node has a
// hidden embedding even when unlabelled, and the richer statistic stabilises
// the global estimate at the paper's 1% label rate).
func (c *Client) LocalMeans() ([]*mat.Dense, int, error) {
	hidden := c.eval().hidden
	means := make([]*mat.Dense, len(hidden))
	obs := 0.0
	for l, h := range hidden {
		means[l] = mat.MeanRows(h)
		if m := mat.Max(h); m > obs {
			obs = m
		}
	}
	c.obsMax = obs
	return means, c.g.NumNodes(), nil
}

// CentralAroundGlobal implements fed.MomentClient: Algorithm 1 lines 12-15.
func (c *Client) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	hidden := c.eval().hidden
	if len(globalMeans) != len(hidden) {
		return nil, 0, fmt.Errorf("core: %s got %d global means for %d layers", c.name, len(globalMeans), len(hidden))
	}
	moms := make([][]*mat.Dense, len(hidden))
	for l, h := range hidden {
		moms[l] = moments.CentralAround(h, globalMeans[l], c.cfg.MaxOrder)
	}
	return moms, c.g.NumNodes(), nil
}

// SetGlobalStats implements fed.MomentClient: Algorithm 1 lines 16-18.
func (c *Client) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	c.globalMeans = means
	c.globalCentral = central
}

// Accuracy evaluates the current model on the given node mask.
func (c *Client) Accuracy(mask []int) (correct, total int) {
	if len(mask) == 0 {
		return 0, 0
	}
	pred := c.eval().pred
	for _, i := range mask {
		if pred[i] == c.g.Labels[i] {
			correct++
		}
	}
	return correct, len(mask)
}

// EvalVal implements fed.Client.
func (c *Client) EvalVal() (int, int) { return c.Accuracy(c.g.ValMask) }

// EvalTest implements fed.Client.
func (c *Client) EvalTest() (int, int) { return c.Accuracy(c.g.TestMask) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"fedomd/internal/ad"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/sparse"
)

// FedSageClient adapts FedSage+ (Zhang et al., NeurIPS 2021): subgraph
// federated learning with missing-neighbour generation. The partition severs
// cross-party edges; FedSage+ compensates by (1) training a neighbour
// generator that predicts plausible neighbour features from a node's own
// features, (2) attaching one generated neighbour to every structurally
// deprived node (local degree below the local median, the signature of a
// node that lost cross-party edges), and (3) classifying with a two-layer
// GraphSAGE convolution Z' = σ(Z·W_self + S_mean·Z·W_nbr) over the augmented
// graph.
//
// Simplification versus the original (documented in DESIGN.md): the
// generator is a linear map trained locally by reconstruction of observed
// neighbour means instead of the federated GAN-style training; generated
// nodes are unlabelled and excluded from evaluation.
type FedSageClient struct {
	name string
	g    *graph.Graph // original local graph (masks refer to it)

	augFeatures *mat.Dense  // original + generated node features
	augOp       *sparse.CSR // mean-aggregation operator over augmented graph
	numOrig     int

	params *nn.Params
	opt    *nn.Adam
	rng    *rand.Rand
	opts   Options
	hidden int
	tape   *ad.Tape
	preds  predCache
	labels []int // g.Labels zero-padded to the augmented node count
}

var _ fed.Client = (*FedSageClient)(nil)

// NewFedSage builds a FedSage+ party: trains the neighbour generator,
// augments the local graph, and initialises the GraphSAGE classifier.
func NewFedSage(name string, g *graph.Graph, opts Options, seed int64) (*FedSageClient, error) {
	opts = opts.withDefaults()
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("baselines: fedsage client %s has an empty graph", name)
	}
	rng := rand.New(rand.NewSource(seed))

	gen := trainNeighborGenerator(g, rng)
	augFeatures, augEdges, numOrig := augmentGraph(g, gen, rng)

	var entries []sparse.Coord
	for _, e := range augEdges {
		entries = append(entries,
			sparse.Coord{Row: e[0], Col: e[1], Val: 1},
			sparse.Coord{Row: e[1], Col: e[0], Val: 1})
	}
	adj, err := sparse.NewCSR(augFeatures.Rows(), augFeatures.Rows(), entries)
	if err != nil {
		return nil, err
	}
	op := sparse.RowSumNormalize(adj)

	params := nn.NewParams()
	params.Add("w_self0", mat.Xavier(rng, g.NumFeatures(), opts.Hidden))
	params.Add("w_nbr0", mat.Xavier(rng, g.NumFeatures(), opts.Hidden))
	params.Add("w_self1", mat.Xavier(rng, opts.Hidden, g.NumClasses))
	params.Add("w_nbr1", mat.Xavier(rng, opts.Hidden, g.NumClasses))

	// Labels for generated nodes never enter: the train mask indexes
	// originals, so the padding values are inert.
	labels := make([]int, augFeatures.Rows())
	copy(labels, g.Labels)

	return &FedSageClient{
		name: name, g: g,
		augFeatures: augFeatures, augOp: op, numOrig: numOrig,
		params: params, opt: nn.NewAdam(opts.LR, opts.WeightDecay),
		rng: rng, opts: opts, hidden: opts.Hidden,
		tape: ad.NewTape(), labels: labels,
	}, nil
}

// trainNeighborGenerator fits the linear generator X_u ↦ mean(X_neighbours)
// by Adam on the reconstruction MSE over nodes that still have neighbours.
func trainNeighborGenerator(g *graph.Graph, rng *rand.Rand) *mat.Dense {
	f := g.NumFeatures()
	var withNbrs []int
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(i) > 0 {
			withNbrs = append(withNbrs, i)
		}
	}
	w := mat.Xavier(rng, f, f)
	if len(withNbrs) == 0 {
		return mat.Eye(f) // no structure to learn from: echo the node itself
	}
	x := g.Features.SelectRows(withNbrs)
	target := mat.New(len(withNbrs), f)
	for row, i := range withNbrs {
		trow := target.Row(row)
		nbrs := g.Neighbors(i)
		for _, j := range nbrs {
			for k, v := range g.Features.Row(j) {
				trow[k] += v
			}
		}
		inv := 1 / float64(len(nbrs))
		for k := range trow {
			trow[k] *= inv
		}
	}
	params := nn.NewParams()
	params.Add("w", w)
	opt := nn.NewAdam(0.01, 0)
	scale := 1 / float64(len(withNbrs)*f)
	tp := ad.NewTape()
	for step := 0; step < 60; step++ {
		wn := tp.Param(w)
		pred := tp.MatMul(tp.Const(x), wn)
		loss := tp.Scale(scale, tp.SumSquares(tp.Sub(pred, tp.Const(target))))
		err := tp.Backward(loss)
		if err == nil {
			err = opt.Step(params, []*ad.Node{wn})
		}
		tp.Release()
		if err != nil {
			break
		}
	}
	return w
}

// augmentGraph attaches one generated neighbour to every node whose degree
// is strictly below the local median degree. Generated features are the
// generator output plus small Gaussian exploration noise (the GAN noise of
// the original).
func augmentGraph(g *graph.Graph, gen *mat.Dense, rng *rand.Rand) (*mat.Dense, [][2]int, int) {
	n := g.NumNodes()
	degs := make([]int, n)
	for i := range degs {
		degs[i] = g.Degree(i)
	}
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	median := sorted[n/2]

	var deprived []int
	for i, d := range degs {
		if d < median {
			deprived = append(deprived, i)
		}
	}
	f := g.NumFeatures()
	aug := mat.New(n+len(deprived), f)
	for i := 0; i < n; i++ {
		copy(aug.Row(i), g.Features.Row(i))
	}
	edges := g.Edges()
	genFeats := mat.MatMul(g.Features.SelectRows(deprived), gen)
	for k, u := range deprived {
		newID := n + k
		row := aug.Row(newID)
		for j, v := range genFeats.Row(k) {
			row[j] = v + 0.01*rng.NormFloat64()
		}
		edges = append(edges, [2]int{u, newID})
	}
	return aug, edges, n
}

// Name implements fed.Client.
func (c *FedSageClient) Name() string { return c.name }

// NumSamples implements fed.Client.
func (c *FedSageClient) NumSamples() int { return len(c.g.TrainMask) }

// Params implements fed.Client.
func (c *FedSageClient) Params() *nn.Params {
	c.preds.drop()
	return c.params
}

// SetParams implements fed.Client.
func (c *FedSageClient) SetParams(global *nn.Params) error {
	c.preds.drop()
	return c.params.CopyFrom(global)
}

// forward records the two GraphSAGE layers on the augmented graph.
func (c *FedSageClient) forward(tp *ad.Tape, train bool) (*ad.Node, []*ad.Node) {
	nodes := make([]*ad.Node, c.params.Len())
	for i := range nodes {
		nodes[i] = tp.Param(c.params.At(i))
	}
	z := tp.Const(c.augFeatures)
	h := tp.Add(tp.MatMul(z, nodes[0]), tp.SpMM(c.augOp, tp.MatMul(z, nodes[1])))
	h = tp.ReLU(h)
	h = tp.Dropout(h, c.opts.Dropout, c.rng, train)
	logits := tp.Add(tp.MatMul(h, nodes[2]), tp.SpMM(c.augOp, tp.MatMul(h, nodes[3])))
	return logits, nodes
}

// TrainLocal implements fed.Client; the loss is computed on original
// (labelled) nodes only.
func (c *FedSageClient) TrainLocal(round int) (float64, error) {
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

// trainStep performs one gradient step on the reused tape.
func (c *FedSageClient) trainStep() (float64, error) {
	c.preds.drop()
	tp := c.tape
	defer tp.Release()
	logits, nodes := c.forward(tp, true)
	loss := tp.SoftmaxCrossEntropy(logits, c.labels, c.g.TrainMask)
	last := loss.Value.At(0, 0)
	if err := tp.Backward(loss); err != nil {
		return 0, fmt.Errorf("baselines: %s backward: %w", c.name, err)
	}
	if err := c.opt.Step(c.params, nodes); err != nil {
		return 0, fmt.Errorf("baselines: %s optimiser: %w", c.name, err)
	}
	return last, nil
}

// Accuracy evaluates on a mask over original nodes.
func (c *FedSageClient) Accuracy(mask []int) (int, int) {
	return c.preds.accuracy(mask, c.g.Labels, func() []int {
		tp := c.tape
		defer tp.Release()
		logits, _ := c.forward(tp, false)
		return mat.ArgmaxRows(logits.Value)
	})
}

// EvalVal implements fed.Client.
func (c *FedSageClient) EvalVal() (int, int) { return c.Accuracy(c.g.ValMask) }

// EvalTest implements fed.Client.
func (c *FedSageClient) EvalTest() (int, int) { return c.Accuracy(c.g.TestMask) }

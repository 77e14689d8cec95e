package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/sparse"
)

// FedLITClient adapts FedLIT (Xie, Xiong & Yang, WWW 2023): node
// classification over graphs with latent link-type heterogeneity. Edges are
// clustered into K latent types by k-means over the endpoint feature
// difference |x_u − x_v|; each type gets its own mean-normalised propagation
// operator and per-layer weight, and a layer aggregates relationally (one
// self path plus one neighbour path per type, as in RGCN-style convolutions):
//
//	Z^{l+1} = σ( Z^l · W^l_self + Σ_k S_k · Z^l · W^l_k )
//
// Simplifications versus the original (documented in DESIGN.md): types are
// inferred once from raw features at construction rather than re-clustered
// from embeddings every round, and parties cluster independently with no
// server-side type matching — so FedAvg may average mismatched types, the
// very failure mode the paper attributes to FedLIT at low sample counts.
type FedLITClient struct {
	name   string
	g      *graph.Graph
	ops    []*sparse.CSR // one per link type
	params *nn.Params
	opt    *nn.Adam
	rng    *rand.Rand
	opts   Options
	types  int
	hidden int
	tape   *ad.Tape
	preds  predCache
}

var _ fed.Client = (*FedLITClient)(nil)

// NewFedLIT builds a FedLIT party with the given number of latent link
// types (the original defaults to small K; we use 3 unless overridden).
func NewFedLIT(name string, g *graph.Graph, linkTypes int, opts Options, seed int64) (*FedLITClient, error) {
	opts = opts.withDefaults()
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("baselines: fedlit client %s has an empty graph", name)
	}
	if linkTypes <= 0 {
		return nil, fmt.Errorf("baselines: fedlit needs positive link types, got %d", linkTypes)
	}
	rng := rand.New(rand.NewSource(seed))

	ops, err := linkTypeOperators(g, linkTypes, rng)
	if err != nil {
		return nil, err
	}
	params := nn.NewParams()
	params.Add("w0_self", mat.Xavier(rng, g.NumFeatures(), opts.Hidden))
	for k := 0; k < linkTypes; k++ {
		params.Add(fmt.Sprintf("w0_t%d", k), mat.Xavier(rng, g.NumFeatures(), opts.Hidden))
	}
	params.Add("w1_self", mat.Xavier(rng, opts.Hidden, g.NumClasses))
	for k := 0; k < linkTypes; k++ {
		params.Add(fmt.Sprintf("w1_t%d", k), mat.Xavier(rng, opts.Hidden, g.NumClasses))
	}
	return &FedLITClient{
		name: name, g: g, ops: ops, params: params,
		opt: nn.NewAdam(opts.LR, opts.WeightDecay), rng: rng, opts: opts,
		types: linkTypes, hidden: opts.Hidden, tape: ad.NewTape(),
	}, nil
}

// linkTypeOperators clusters edges into latent types and builds one
// mean-normalised (row-stochastic) operator per type; self representation is
// handled by the separate W_self path, so no self loops are added and an
// empty type contributes nothing.
func linkTypeOperators(g *graph.Graph, k int, rng *rand.Rand) ([]*sparse.CSR, error) {
	edges := g.Edges()
	assign := make([]int, len(edges))
	if len(edges) > 0 {
		feats := make([][]float64, len(edges))
		dim := g.NumFeatures()
		for i, e := range edges {
			fu, fv := g.Features.Row(e[0]), g.Features.Row(e[1])
			d := make([]float64, dim)
			for j := range d {
				d[j] = math.Abs(fu[j] - fv[j])
			}
			feats[i] = d
		}
		assign = kMeans(feats, k, 15, rng)
	}
	ops := make([]*sparse.CSR, k)
	n := g.NumNodes()
	for t := 0; t < k; t++ {
		var entries []sparse.Coord
		for i, e := range edges {
			if assign[i] == t {
				entries = append(entries,
					sparse.Coord{Row: e[0], Col: e[1], Val: 1},
					sparse.Coord{Row: e[1], Col: e[0], Val: 1})
			}
		}
		adj, err := sparse.NewCSR(n, n, entries)
		if err != nil {
			return nil, err
		}
		ops[t] = sparse.RowSumNormalize(adj)
	}
	return ops, nil
}

// kMeans clusters points into k groups with Lloyd's algorithm and k-means++
// style seeding from rng; it returns the assignment per point.
func kMeans(points [][]float64, k, iters int, rng *rand.Rand) []int {
	n := len(points)
	assign := make([]int, n)
	if n == 0 {
		return assign
	}
	if k > n {
		k = n
	}
	dim := len(points[0])
	centers := make([][]float64, k)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		centers[c] = append([]float64(nil), points[perm[c]]...)
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for j := range a {
			d := a[j] - b[j]
			s += d * d
		}
		return s
	}
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bd := 0, math.Inf(1)
			for c := range centers {
				if d := dist(p, centers[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster on a random point.
				centers[c] = append([]float64(nil), points[rng.Intn(n)]...)
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return assign
}

// Name implements fed.Client.
func (c *FedLITClient) Name() string { return c.name }

// NumSamples implements fed.Client.
func (c *FedLITClient) NumSamples() int { return len(c.g.TrainMask) }

// Params implements fed.Client.
func (c *FedLITClient) Params() *nn.Params {
	c.preds.drop()
	return c.params
}

// SetParams implements fed.Client.
func (c *FedLITClient) SetParams(global *nn.Params) error {
	c.preds.drop()
	return c.params.CopyFrom(global)
}

// forward records the two relational type-mixing layers. Parameter layout:
// nodes[0] = W0_self, nodes[1..types] = W0 per type, nodes[types+1] =
// W1_self, nodes[types+2..] = W1 per type.
func (c *FedLITClient) forward(tp *ad.Tape, train bool) (*ad.Node, []*ad.Node) {
	nodes := make([]*ad.Node, c.params.Len())
	for i := range nodes {
		nodes[i] = tp.Param(c.params.At(i))
	}
	layer := func(z *ad.Node, selfIdx int) *ad.Node {
		out := tp.MatMul(z, nodes[selfIdx])
		for k := 0; k < c.types; k++ {
			out = tp.Add(out, tp.SpMM(c.ops[k], tp.MatMul(z, nodes[selfIdx+1+k])))
		}
		return out
	}
	x := tp.Const(c.g.Features)
	h := tp.ReLU(layer(x, 0))
	h = tp.Dropout(h, c.opts.Dropout, c.rng, train)
	logits := layer(h, c.types+1)
	return logits, nodes
}

// TrainLocal implements fed.Client.
func (c *FedLITClient) TrainLocal(round int) (float64, error) {
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
func (c *FedLITClient) trainStep() (float64, error) {
	c.preds.drop()
	tp := c.tape
	defer tp.Release()
	logits, nodes := c.forward(tp, true)
	loss := tp.SoftmaxCrossEntropy(logits, c.g.Labels, c.g.TrainMask)
	last := loss.Value.At(0, 0)
	if err := tp.Backward(loss); err != nil {
		return 0, fmt.Errorf("baselines: %s backward: %w", c.name, err)
	}
	if err := c.opt.Step(c.params, nodes); err != nil {
		return 0, fmt.Errorf("baselines: %s optimiser: %w", c.name, err)
	}
	return last, nil
}

// Accuracy evaluates the current model on a node mask.
func (c *FedLITClient) Accuracy(mask []int) (int, int) {
	return c.preds.accuracy(mask, c.g.Labels, func() []int {
		tp := c.tape
		defer tp.Release()
		logits, _ := c.forward(tp, false)
		return mat.ArgmaxRows(logits.Value)
	})
}

// EvalVal implements fed.Client.
func (c *FedLITClient) EvalVal() (int, int) { return c.Accuracy(c.g.ValMask) }

// EvalTest implements fed.Client.
func (c *FedLITClient) EvalTest() (int, int) { return c.Accuracy(c.g.TestMask) }

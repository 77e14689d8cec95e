package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/dataset"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/partition"
	"fedomd/internal/sparse"
)

// TestLayerOneCache checks that the first layer's operand is built once per
// (S̃, X) pair, rebuilt when either operand changes, and holds what each order
// needs: S̃X in the dense order, the CSR form of X in the paper order.
func TestLayerOneCache(t *testing.T) {
	s, x, _, _ := allocFixture(t)
	var l layerOne
	l.build(s, x, false)
	p1 := l.sx
	l.prepare(s, x)
	if l.sx != p1 {
		t.Fatal("operand rebuilt on identical operands")
	}
	if !p1.Equal(s.MulDense(x)) {
		t.Fatal("dense order does not hold S̃X")
	}
	x2 := x.Clone()
	l.prepare(s, x2)
	if l.x != x2 || (l.sx == p1 && l.xs == nil) {
		t.Fatal("operand not rebuilt on new features")
	}
	l.build(s, x, true)
	if l.sx != nil || !l.xs.ToDense().Equal(x) {
		t.Fatal("paper order does not hold X as CSR")
	}
	l.build(nil, x, false)
	if l.sx != x {
		t.Fatal("dense order without S̃ must use X itself")
	}
}

// benchParties cuts g the way the benchmark's fleets do (1/20/20 % split,
// Louvain into m parties, data seed 1) and returns each non-empty party's
// propagation operator and features.
func benchParties(t *testing.T, g *graph.Graph, m int) []Input {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	if err := g.Split(rng, 0.01, 0.2, 0.2); err != nil {
		t.Fatal(err)
	}
	parties, err := partition.LouvainParties(g, m, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ins []Input
	for _, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		s, err := sparse.GCNNormalize(p.Graph.Adj)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, Input{S: s, X: p.Graph.Features})
	}
	return ins
}

func presetAt(t *testing.T, name string, divisor int) *graph.Graph {
	t.Helper()
	cfg, err := dataset.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.Generate(dataset.Scaled(cfg, divisor), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPaperOrderOnBenchShapes pins which layer-1 order the rule picks on the
// benchmark's shapes: the sparse-featured Cora and Citeseer parties take the
// paper order, the 100k-node stream's parties and the serving table (the
// whole stream graph) the dense one. A kernel change that moves the
// crossover has to edit this table deliberately.
func TestPaperOrderOnBenchShapes(t *testing.T) {
	stream, err := dataset.GenerateStream(dataset.Config{
		Name: "bench-stream", Nodes: 100_000, Edges: 800_000, Classes: 8, Features: 32,
		CommunitiesPerClass: 4, Homophily: 0.85, ActiveFeatures: 6, SignalRatio: 0.9,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	table, err := sparse.GCNNormalize(stream.Adj)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		ins   []Input
		paper bool
	}{
		{"cora÷1 M=3 (train_dense)", benchParties(t, presetAt(t, dataset.Cora, 1), 3), true},
		{"cora÷1 M=8 (fed_tcp_q8)", benchParties(t, presetAt(t, dataset.Cora, 1), 8), true},
		{"citeseer÷2 M=8 (fed_async_straggler)", benchParties(t, presetAt(t, dataset.Citeseer, 2), 8), true},
		{"serving table", []Input{{S: table, X: stream.Features}}, false},
		{"stream M=8 (train_sparse)", benchParties(t, stream, 8), false},
	}
	for _, tc := range cases {
		for i, in := range tc.ins {
			nnz := 0
			for _, v := range in.X.Data() {
				if v != 0 {
					nnz++
				}
			}
			n, f := in.X.Dims()
			ratio := float64(n*f) / float64(nnz+in.S.NNZ())
			t.Logf("%s party %d: n·f/(nnz(X)+nnz(S̃)) = %.1f", tc.name, i, ratio)
			if got := paperOrder(in.S, in.X); got != tc.paper {
				t.Errorf("%s party %d: paperOrder = %v at n·f/(nnz(X)+nnz(S̃)) = %.1f, want %v",
					tc.name, i, got, ratio, tc.paper)
			}
		}
	}
}

// orderRun is one model's logits and parameter gradients from a training
// forward and backward with the first layer forced into one order.
func orderRun(t *testing.T, m Model, first *layerOne, in Input, labels []int, paper bool) []*mat.Dense {
	t.Helper()
	first.build(in.S, in.X, paper)
	tp := ad.NewTape()
	defer tp.Release()
	f := m.Forward(tp, in, rand.New(rand.NewSource(5)), true)
	mask := make([]int, len(labels))
	for i := range mask {
		mask[i] = i
	}
	if err := tp.Backward(tp.SoftmaxCrossEntropy(f.Logits, labels, mask)); err != nil {
		t.Fatal(err)
	}
	out := []*mat.Dense{f.Logits.Value.Clone()}
	for _, p := range f.ParamNodes {
		out = append(out, p.Grad.Clone())
	}
	return out
}

// TestLayerOneOrdersAgree runs GCN, OrthoGCN and MLP on every preset at ÷8
// in both layer-1 orders: logits and every parameter gradient must agree to
// 1e-10 relative to the matrix's largest entry. The orders sum in different
// sequences, so bit equality is not expected.
func TestLayerOneOrdersAgree(t *testing.T) {
	for _, name := range dataset.Names() {
		g := presetAt(t, name, 8)
		s, err := sparse.GCNNormalize(g.Adj)
		if err != nil {
			t.Fatal(err)
		}
		f, c := g.NumFeatures(), g.NumClasses
		rng := rand.New(rand.NewSource(3))
		gcn, err := NewGCN(rng, []int{f, 16, c}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ortho, err := NewOrthoGCN(rng, f, 16, c, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		mlp, err := NewMLP(rng, []int{f, 16, c}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		models := []struct {
			name  string
			m     Model
			first *layerOne
			in    Input
		}{
			{"gcn", gcn, &gcn.first, Input{S: s, X: g.Features}},
			{"orthogcn", ortho, &ortho.first, Input{S: s, X: g.Features}},
			{"mlp", mlp, &mlp.first, Input{X: g.Features}},
		}
		for _, tc := range models {
			dense := orderRun(t, tc.m, tc.first, tc.in, g.Labels, false)
			paper := orderRun(t, tc.m, tc.first, tc.in, g.Labels, true)
			for k := range dense {
				var worst, scale float64
				for i, v := range dense[k].Data() {
					worst = math.Max(worst, math.Abs(paper[k].Data()[i]-v))
					scale = math.Max(scale, math.Abs(v))
				}
				if worst > 1e-10*scale {
					t.Errorf("%s %s: output %d differs between orders by %g (largest entry %g)",
						name, tc.name, k, worst, scale)
				}
			}
		}
	}
}

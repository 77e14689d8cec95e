package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// ringGraph builds an n-node ring with a few random chords, normalised for
// GCN propagation, plus Gaussian features.
func ringGraph(t *testing.T, n, feats int, seed int64) (*sparse.CSR, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var coords []sparse.Coord
	addEdge := func(a, b int) {
		coords = append(coords,
			sparse.Coord{Row: a, Col: b, Val: 1},
			sparse.Coord{Row: b, Col: a, Val: 1})
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n)
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			addEdge(a, b)
		}
	}
	adj, err := sparse.NewCSR(n, n, coords)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sparse.GCNNormalize(adj)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, n, feats, 0, 1)
	return s, x
}

// tapeLogits runs the autodiff forward in eval mode and returns a detached
// copy of the logits.
func tapeLogits(t *testing.T, m Model, in Input) *mat.Dense {
	t.Helper()
	tp := ad.NewTape()
	defer tp.Release()
	f := m.Forward(tp, in, rand.New(rand.NewSource(7)), false)
	return f.Logits.Value.Clone()
}

func maxAbsRowDiff(t *testing.T, want *mat.Dense, row []float64, node int) float64 {
	t.Helper()
	var worst float64
	for j, v := range row {
		if d := math.Abs(v - want.At(node, j)); d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferencerParity pins the fold to the tape forward (train=false) at
// every depth the table build handles — the input GCNConv alone, and one or
// two OrthoConv layers after it — with the spectral bound on and off.
func TestInferencerParity(t *testing.T) {
	const n, feats, classes = 24, 6, 3
	s, x := ringGraph(t, n, feats, 11)
	in := Input{S: s, X: x}
	rng := rand.New(rand.NewSource(3))
	batches := [][]int{
		{0}, {3, 1, 3, n - 1}, allNodes(n),
	}
	for _, layers := range []int{1, 2, 3} {
		for _, bound := range []bool{true, false} {
			name := fmt.Sprintf("layers=%d/bound=%v", layers, bound)
			m, err := NewOrthoGCN(rng, feats, 8, classes, layers, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			m.SetSpectralBound(bound)
			// Push the OrthoConv weights off the orthogonal manifold so
			// their spectral norm exceeds 1 and the bound actually rescales.
			for l := 1; l < layers; l++ {
				w := m.Params().Get(fmt.Sprintf("w_ortho%d", l))
				w.ScaleInPlace(3)
				if mat.SpectralNorm(w) <= 1 {
					t.Fatalf("%s: w_ortho%d norm %g, want > 1", name, l, mat.SpectralNorm(w))
				}
			}
			want := tapeLogits(t, m, in)
			inf, err := NewInferencer(m, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if inf.Nodes() != n || inf.Classes() != classes {
				t.Fatalf("%s: inferencer %d nodes × %d classes, want %d × %d",
					name, inf.Nodes(), inf.Classes(), n, classes)
			}
			for _, idx := range batches {
				out := mat.New(len(idx), classes)
				if err := inf.InferInto(out, idx); err != nil {
					t.Fatalf("%s: InferInto: %v", name, err)
				}
				for i, node := range idx {
					if d := maxAbsRowDiff(t, want, out.Row(i), node); d > 1e-9 {
						t.Fatalf("%s: node %d logits diverge from tape forward by %g", name, node, d)
					}
				}
			}
		}
	}
}

func allNodes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestInferencerSnapshot pins the RCU property the serving plane relies on:
// mutating the source model after NewInferencer must not change what the
// snapshot serves.
func TestInferencerSnapshot(t *testing.T) {
	const n, feats, classes = 16, 5, 3
	s, x := ringGraph(t, n, feats, 5)
	in := Input{S: s, X: x}
	rng := rand.New(rand.NewSource(9))
	m, err := NewOrthoGCN(rng, feats, 6, classes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := NewInferencer(m, in)
	if err != nil {
		t.Fatal(err)
	}
	idx := allNodes(n)
	before := mat.New(n, classes)
	if err := inf.InferInto(before, idx); err != nil {
		t.Fatal(err)
	}
	// Scribble over every parameter, as a training step would.
	for i := 0; i < m.Params().Len(); i++ {
		m.Params().At(i).Fill(123.25)
	}
	after := mat.New(n, classes)
	if err := inf.InferInto(after, idx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < classes; j++ {
			if before.At(i, j) != after.At(i, j) {
				t.Fatalf("inference changed after source-model mutation at (%d,%d)", i, j)
			}
		}
	}
}

func TestInferIntoErrors(t *testing.T) {
	const n, feats, classes = 8, 4, 2
	s, x := ringGraph(t, n, feats, 2)
	rng := rand.New(rand.NewSource(1))
	m, err := NewOrthoGCN(rng, feats, 6, classes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := NewInferencer(m, Input{S: s, X: x})
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.InferInto(mat.New(2, classes), []int{0, n}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := inf.InferInto(mat.New(2, classes), []int{0, -1}); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := inf.InferInto(mat.New(1, classes), []int{0, 1}); err == nil {
		t.Fatal("mis-shaped output accepted")
	}
	if err := inf.InferInto(mat.New(1, classes+1), []int{0}); err == nil {
		t.Fatal("wrong logit width accepted")
	}
	if err := inf.InferInto(mat.New(0, classes), nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	if _, err := NewInferencer(m, Input{X: x}); err == nil {
		t.Fatal("missing operator accepted")
	}
	if _, err := NewInferencer(m, Input{S: s}); err == nil {
		t.Fatal("missing features accepted")
	}
	_, wide := ringGraph(t, n, feats+1, 2)
	if _, err := NewInferencer(m, Input{S: s, X: wide}); err == nil {
		t.Fatal("feature-width mismatch accepted")
	}
}

// TestInferIntoAllocs is the zero-alloc gate on the tape-free serving path:
// once the pool is warm, a steady stream of same-shaped batches must not
// allocate at all.
func TestInferIntoAllocs(t *testing.T) {
	const n, feats, classes, batch = 64, 32, 4, 16
	s, x := ringGraph(t, n, feats, 4)
	rng := rand.New(rand.NewSource(6))
	m, err := NewOrthoGCN(rng, feats, 16, classes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := NewInferencer(m, Input{S: s, X: x})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = (i * 7) % n
	}
	out := mat.New(batch, classes)
	// Warm the pool buckets the batch shape draws from.
	for i := 0; i < 3; i++ {
		if err := inf.InferInto(out, idx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := inf.InferInto(out, idx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("InferInto allocates %.1f objects per batch in steady state, want 0", allocs)
	}
}

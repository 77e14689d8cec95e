package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/sparse"
	"fedomd/internal/telemetry"
)

// testGraph builds an n-node graph with no edges whose features one-hot
// encode node%classes. Without edges the GCN-normalised operator is exactly
// the identity, so with the crafted FedOMD checkpoints below every node's
// expected class is computable in closed form.
func testGraph(t *testing.T, n, classes int) *graph.Graph {
	t.Helper()
	feats := mat.New(n, classes)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		feats.Set(i, i%classes, 1)
		labels[i] = i % classes
	}
	g, err := graph.New(feats, labels, classes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fedomdCheckpoint crafts a one-hidden-layer FedOMD model whose input weight
// is the identity and whose output weight is the identity shifted by round.
// With S̃ = I (testGraph) the logits are X·W_out, so a node with feature e_j
// gets class (j+round) % classes. Integer weights keep the arithmetic exact,
// so responses are fully deterministic across machines.
func fedomdCheckpoint(t *testing.T, classes, round int) *fed.Checkpoint {
	t.Helper()
	m, err := nn.NewOrthoGCN(rand.New(rand.NewSource(1)), classes, classes, classes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	win, wout := m.Params().Get("w_in"), m.Params().Get("w_out")
	win.Fill(0)
	wout.Fill(0)
	for j := 0; j < classes; j++ {
		win.Set(j, j, 1)
		wout.Set(j, (j+round)%classes, 1)
	}
	spec := &fed.ModelSpec{
		SpecVersion: fed.SpecVersion, Model: "fedomd",
		Features: classes, Classes: classes,
		Hidden: classes, HiddenLayers: 1, SpectralBound: true,
	}
	return fed.NewModelCheckpoint(round, m.Params(), spec)
}

// expectedClass is the closed-form answer for fedomdCheckpoint models.
func expectedClass(node, classes, round int) int {
	return (node%classes + round) % classes
}

func swapFromCheckpoint(t *testing.T, s *Service, ck *fed.Checkpoint, g *graph.Graph) {
	t.Helper()
	inf, err := InferencerFromCheckpoint(ck, g)
	if err != nil {
		t.Fatal(err)
	}
	s.Swap(inf, ck.Round)
}

func TestServeNoModel(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.Classify(context.Background(), []int{0}, false); err != ErrNoModel {
		t.Fatalf("classify without model: %v, want ErrNoModel", err)
	}
	if s.Healthy() {
		t.Fatal("service healthy without a model")
	}
	found := false
	for _, e := range s.Health() {
		if e.Rule == RuleNoModel {
			found = true
		}
	}
	if !found {
		t.Fatalf("no_model rule missing from %v", s.Health())
	}
}

func TestServeAnswersMatchModel(t *testing.T) {
	const n, classes = 20, 3
	g := testGraph(t, n, classes)
	s := New(Config{MaxBatch: 8})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 4), g)
	nodes := []int{0, 5, 19, 5, 2}
	res, err := s.Classify(context.Background(), nodes, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelRound != 4 {
		t.Fatalf("model round %d want 4", res.ModelRound)
	}
	for i, node := range nodes {
		if want := expectedClass(node, classes, 4); res.Classes[i] != want {
			t.Fatalf("node %d class %d want %d", node, res.Classes[i], want)
		}
		if len(res.Logits[i]) != classes {
			t.Fatalf("node %d logit width %d", node, len(res.Logits[i]))
		}
	}
	if _, err := s.Classify(context.Background(), []int{n}, false); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := s.Classify(context.Background(), nil, false); err == nil {
		t.Fatal("empty request accepted")
	}
}

// TestServeCoalesces pins the perf mechanism: concurrent single-node
// requests must share forward batches, not run one pass each.
func TestServeCoalesces(t *testing.T) {
	const n, classes, requests = 24, 3, 64
	g := testGraph(t, n, classes)
	agg := telemetry.NewAggregator()
	s := New(Config{MaxBatch: 8, Linger: 20 * time.Millisecond, Recorder: agg})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 1), g)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			res, err := s.Classify(context.Background(), []int{node}, false)
			if err != nil {
				t.Errorf("classify: %v", err)
				return
			}
			if want := expectedClass(node, classes, 1); res.Classes[0] != want {
				t.Errorf("node %d class %d want %d", node, res.Classes[0], want)
			}
		}(i % n)
	}
	wg.Wait()
	batches := agg.Counter(MetricBatches)
	if batches == 0 || batches*4 > requests {
		t.Fatalf("%d requests ran in %d batches; coalescing is not happening", requests, batches)
	}
	if got := agg.Counter(MetricRequests); got != requests {
		t.Fatalf("request counter %d want %d", got, requests)
	}
}

func TestServeCacheReuse(t *testing.T) {
	const n, classes = 12, 3
	g := testGraph(t, n, classes)
	agg := telemetry.NewAggregator()
	s := New(Config{MaxBatch: 4, CacheSize: 256, Recorder: agg})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 2), g)
	first, err := s.Classify(context.Background(), []int{7, 7, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate inside one batch shares the freshly computed row.
	if agg.Counter(MetricCacheHits) != 1 {
		t.Fatalf("cache hits %d want 1 (intra-batch dedupe)", agg.Counter(MetricCacheHits))
	}
	second, err := s.Classify(context.Background(), []int{7}, true)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Counter(MetricCacheMisses) != 2 {
		t.Fatalf("cache misses %d want 2 (second request should be all hits)", agg.Counter(MetricCacheMisses))
	}
	if agg.Counter(MetricCacheHits) != 2 {
		t.Fatalf("cache hits %d want 2", agg.Counter(MetricCacheHits))
	}
	if second.Classes[0] != first.Classes[0] {
		t.Fatal("cached answer diverges from computed answer")
	}
}

// TestSwapChangesAnswersAndInvalidatesCache is the RCU contract: after Swap,
// answers come from the new model even for nodes the old model had cached.
func TestSwapChangesAnswersAndInvalidatesCache(t *testing.T) {
	const n, classes = 12, 3
	g := testGraph(t, n, classes)
	s := New(Config{MaxBatch: 4, CacheSize: 256})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 0), g)
	before, err := s.Classify(context.Background(), []int{4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if before.ModelRound != 0 || before.Classes[0] != expectedClass(4, classes, 0) {
		t.Fatalf("pre-swap answer wrong: %+v", before)
	}
	if s.cache.Len() == 0 {
		t.Fatal("nothing cached")
	}
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 1), g)
	if s.cache.Len() != 0 {
		t.Fatal("swap did not invalidate the cache")
	}
	after, err := s.Classify(context.Background(), []int{4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelRound != 1 || after.Classes[0] != expectedClass(4, classes, 1) {
		t.Fatalf("post-swap answer stale: %+v", after)
	}
}

// TestServeUnbatchedMode pins that MaxBatch <= 1 serves correctly through
// the same path with one batch per request.
func TestServeUnbatchedMode(t *testing.T) {
	const n, classes = 10, 3
	g := testGraph(t, n, classes)
	agg := telemetry.NewAggregator()
	s := New(Config{MaxBatch: 1, Recorder: agg})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 3), g)
	for i := 0; i < 5; i++ {
		res, err := s.Classify(context.Background(), []int{i}, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedClass(i, classes, 3); res.Classes[0] != want {
			t.Fatalf("node %d class %d want %d", i, res.Classes[0], want)
		}
	}
	if b := agg.Counter(MetricBatches); b != 5 {
		t.Fatalf("unbatched mode ran %d batches for 5 requests", b)
	}
}

// TestCloseDrains pins the zero-dropped-requests shutdown contract: every
// request admitted before Close completes with an answer.
func TestCloseDrains(t *testing.T) {
	const n, classes = 16, 3
	g := testGraph(t, n, classes)
	s := New(Config{MaxBatch: 4, Linger: 5 * time.Millisecond})
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 1), g)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			if _, err := s.Classify(context.Background(), []int{node}, false); err != nil && err != ErrClosed {
				errs <- err
			}
		}(i % n)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request dropped across Close: %v", err)
	}
	if _, err := s.Classify(context.Background(), []int{0}, false); err != ErrClosed {
		t.Fatalf("post-close classify: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSingleNodeMatchesFullTable pins that a served node's logits do not
// depend on its batch-mates: InferInto of one node returns, bit for bit, that
// node's row of the full-table sweep a reference answer is computed from. The
// table is a FedOMD model over a streamed graph whose node count leaves a
// ragged tail of rows.
func TestSingleNodeMatchesFullTable(t *testing.T) {
	g, err := dataset.GenerateStream(dataset.Config{
		Name: "serve-table", Nodes: 2003, Edges: 8 * 2003, Classes: 8, Features: 32,
		CommunitiesPerClass: 4, Homophily: 0.85, ActiveFeatures: 6, SignalRatio: 0.9,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := &fed.ModelSpec{
		SpecVersion: fed.SpecVersion, Model: "fedomd",
		Features: g.NumFeatures(), Classes: g.NumClasses,
		Hidden: 64, HiddenLayers: 2, SpectralBound: true,
	}
	m, err := nn.NewOrthoGCN(rand.New(rand.NewSource(3)), g.NumFeatures(), 64, g.NumClasses, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := BuildInferencer(spec, m.Params(), g)
	if err != nil {
		t.Fatal(err)
	}
	n, classes := inf.Nodes(), inf.Classes()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	full := mat.New(n, classes)
	if err := inf.InferInto(full, all); err != nil {
		t.Fatal(err)
	}
	one := mat.New(1, classes)
	for id := 0; id < n; id++ {
		if err := inf.InferInto(one, []int{id}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < classes; j++ {
			if one.At(0, j) != full.At(id, j) {
				t.Fatalf("node %d class %d: single-node logit %x, full-table %x", id, j, one.At(0, j), full.At(id, j))
			}
		}
	}
}

// TestBuildInferencerSpecs covers the checkpoint rebuild path against an
// inferencer folded directly from the live model, on a graph with edges so
// the propagation is not the identity, and the specs it must refuse.
func TestBuildInferencerSpecs(t *testing.T) {
	const n, classes = 18, 3
	base := testGraph(t, n, classes)
	ring := make([][2]int, n)
	for i := range ring {
		ring[i] = [2]int{i, (i + 1) % n}
	}
	g, err := graph.New(base.Features, base.Labels, classes, ring)
	if err != nil {
		t.Fatal(err)
	}
	feats := g.NumFeatures()
	om, err := nn.NewOrthoGCN(rand.New(rand.NewSource(5)), feats, 6, classes, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := &fed.ModelSpec{Model: "fedomd", Features: feats, Classes: classes,
		Hidden: 6, HiddenLayers: 2, SpectralBound: true}
	inf, err := InferencerFromCheckpoint(fed.NewModelCheckpoint(9, om.Params(), spec), g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sparse.GCNNormalize(g.Adj)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := nn.NewInferencer(om, nn.Input{S: s, X: g.Features})
	if err != nil {
		t.Fatal(err)
	}
	got, want := mat.New(n, classes), mat.New(n, classes)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if err := inf.InferInto(got, idx); err != nil {
		t.Fatal(err)
	}
	if err := direct.InferInto(want, idx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < classes; j++ {
			d := got.At(i, j) - want.At(i, j)
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("rebuilt model diverges at (%d,%d): %g vs %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}

	if _, err := BuildInferencer(nil, om.Params(), g); err != ErrNoSpec {
		t.Fatalf("nil spec: %v, want ErrNoSpec", err)
	}
	bad := &fed.ModelSpec{Model: "fedomd", Features: feats + 1, Classes: classes, Hidden: 6, HiddenLayers: 2}
	if _, err := BuildInferencer(bad, om.Params(), g); err == nil {
		t.Fatal("feature-mismatched spec accepted")
	}
	// No trainer writes these kinds, so the serving plane builds none of
	// them; the refusal names the kind it was given.
	for _, kind := range []string{"mlp", "gcn", "sgc", "unknown"} {
		spec := &fed.ModelSpec{Model: kind, Features: feats, Classes: classes, Hidden: 6, HiddenLayers: 2}
		_, err := BuildInferencer(spec, om.Params(), g)
		if err == nil {
			t.Fatalf("model kind %q accepted", kind)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", kind)) {
			t.Fatalf("refusal of kind %q does not name it: %v", kind, err)
		}
	}
}

// Healthy reports whether no critical health rule fires — the /healthz
// verdict.
func (s *Service) Healthy() bool {
	for _, e := range s.Health() {
		if e.Level == obs.LevelCritical {
			return false
		}
	}
	return true
}

// Len reports the total number of cached rows (tests and healthz).
func (c *logitCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

package baselines

import (
	"math/rand"
	"testing"

	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/partition"
)

func tinyGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	cfg := dataset.Config{Name: "tiny", Nodes: 150, Edges: 400, Classes: 3, Features: 20,
		CommunitiesPerClass: 2, Homophily: 0.85, ActiveFeatures: 5, SignalRatio: 0.9}
	g, err := dataset.Generate(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Split(rand.New(rand.NewSource(seed)), 0.1, 0.2, 0.2); err != nil {
		t.Fatal(err)
	}
	return g
}

func quickOpts() Options {
	return Options{Hidden: 16, LR: 0.03, LocalEpochs: 1}
}

func TestAllConstructorsRejectEmptyGraph(t *testing.T) {
	empty, err := graph.New(mat.New(0, 1), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFedMLP("x", empty, quickOpts(), 1); err == nil {
		t.Fatal("FedMLP accepted empty graph")
	}
	if _, err := NewScaffold("x", empty, quickOpts(), 1); err == nil {
		t.Fatal("Scaffold accepted empty graph")
	}
	if _, err := NewFedLIT("x", empty, 3, quickOpts(), 1); err == nil {
		t.Fatal("FedLIT accepted empty graph")
	}
	if _, err := NewFedSage("x", empty, quickOpts(), 1); err == nil {
		t.Fatal("FedSage accepted empty graph")
	}
}

func TestFedLITValidation(t *testing.T) {
	g := tinyGraph(t, 1)
	if _, err := NewFedLIT("x", g, 0, quickOpts(), 1); err == nil {
		t.Fatal("0 link types accepted")
	}
}

// trainImproves runs a federation and asserts the model beats random chance.
func trainImproves(t *testing.T, clients []fed.Client, classes int, rounds int) *fed.Result {
	t.Helper()
	res, err := fed.Run(fed.Config{Rounds: rounds}, clients)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(classes)
	if res.TestAtBestVal <= chance {
		t.Fatalf("test acc %.3f not above chance %.3f", res.TestAtBestVal, chance)
	}
	return res
}

func partiesOf(t *testing.T, g *graph.Graph, m int, seed int64) []partition.Party {
	t.Helper()
	parties, err := partition.LouvainParties(g, m, 1.0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return parties
}

func TestFedMLPFederates(t *testing.T) {
	g := tinyGraph(t, 2)
	var clients []fed.Client
	for i, p := range partiesOf(t, g, 2, 2) {
		c, err := NewFedMLP("mlp", p.Graph, quickOpts(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	trainImproves(t, clients, g.NumClasses, 40)
}

// paramTap snapshots every upload the server reads from a client, so tests
// can observe per-client post-training params: after the run the live params
// hold the final broadcast global, identical across clients by construction.
type paramTap struct {
	*Client
	lastUpload *nn.Params
}

func (p *paramTap) Params() *nn.Params {
	up := p.Client.Params()
	p.lastUpload = up.Clone()
	return up
}

func TestFedProxTermShrinksDrift(t *testing.T) {
	g := tinyGraph(t, 3)
	parties := partiesOf(t, g, 2, 3)
	drift := func(mu float64) float64 {
		var clients []fed.Client
		var raw []*paramTap
		for i, p := range parties {
			opts := quickOpts()
			opts.ProxMu = mu
			opts.LocalEpochs = 8
			var (
				c   *Client
				err error
			)
			if mu > 0 {
				c, err = NewFedProx("prox", p.Graph, opts, int64(i+1))
			} else {
				c, err = NewFedMLP("mlp", p.Graph, opts, int64(i+1))
			}
			if err != nil {
				t.Fatal(err)
			}
			tap := &paramTap{Client: c}
			clients = append(clients, tap)
			raw = append(raw, tap)
		}
		if _, err := fed.Run(fed.Config{Rounds: 6, Sequential: true}, clients); err != nil {
			t.Fatal(err)
		}
		// Drift: distance between the two clients' last uploaded params —
		// their post-training state before the final averaged broadcast.
		d, err := raw[0].lastUpload.L2Distance(raw[1].lastUpload)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	noProx := drift(0)
	withProx := drift(1.0) // strong proximal pull
	if withProx >= noProx {
		t.Fatalf("proximal term did not reduce client drift: %.4f vs %.4f", withProx, noProx)
	}
}

func TestScaffoldFederates(t *testing.T) {
	g := tinyGraph(t, 4)
	var clients []fed.Client
	for i, p := range partiesOf(t, g, 2, 4) {
		opts := quickOpts()
		opts.LR = 0.1 // SCAFFOLD uses plain SGD steps
		opts.LocalEpochs = 4
		c, err := NewScaffold("scaffold", p.Graph, opts, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	trainImproves(t, clients, g.NumClasses, 50)
}

func TestScaffoldControlVariatesAggregate(t *testing.T) {
	g := tinyGraph(t, 5)
	parties := partiesOf(t, g, 2, 5)
	a, err := NewScaffold("a", parties[0].Graph, quickOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScaffold("b", parties[1].Graph, quickOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run(fed.Config{Rounds: 3}, []fed.Client{a, b}); err != nil {
		t.Fatal(err)
	}
	// After rounds, the clients' global control variates must agree (both
	// downloaded the same aggregate) and be non-zero.
	d, err := a.cGlobal.L2Distance(b.cGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("global control variates diverge: %v", d)
	}
	if n := a.cGlobal.NumFloats(); n == 0 {
		t.Fatal("control variates empty")
	}
}

func TestGCNClientFederatesAndBeatsLocalMLPBaseline(t *testing.T) {
	g := tinyGraph(t, 6)
	var gcn []fed.Client
	for i, p := range partiesOf(t, g, 2, 6) {
		c, err := NewGCNClient("gcn", p.Graph, quickOpts(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		gcn = append(gcn, c)
	}
	trainImproves(t, gcn, g.NumClasses, 40)
}

func TestLocGCNRunsWithoutFederation(t *testing.T) {
	g := tinyGraph(t, 7)
	var clients []fed.Client
	for i, p := range partiesOf(t, g, 2, 7) {
		c, err := NewGCNClient("loc", p.Graph, quickOpts(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	res, err := fed.RunLocalOnly(fed.Config{Rounds: 30}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytesUp != 0 {
		t.Fatal("LocGCN communicated")
	}
	if res.TestAtBestVal <= 1.0/float64(g.NumClasses) {
		t.Fatalf("LocGCN acc %.3f not above chance", res.TestAtBestVal)
	}
}

func TestFedLITOperatorsCoverAllEdges(t *testing.T) {
	g := tinyGraph(t, 8)
	c, err := NewFedLIT("lit", g, 3, quickOpts(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal entries across all type operators must equal 2×edges.
	var offDiag int
	for _, op := range c.ops {
		for i := 0; i < op.Rows(); i++ {
			op.RowEntries(i, func(j int, _ float64) {
				if i != j {
					offDiag++
				}
			})
		}
	}
	if offDiag != 2*g.NumEdges() {
		t.Fatalf("link-type operators cover %d directed edges, want %d", offDiag, 2*g.NumEdges())
	}
}

func TestFedLITFederates(t *testing.T) {
	g := tinyGraph(t, 9)
	var clients []fed.Client
	for i, p := range partiesOf(t, g, 2, 9) {
		c, err := NewFedLIT("lit", p.Graph, 3, quickOpts(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	trainImproves(t, clients, g.NumClasses, 40)
}

func TestFedSageAugmentsDeprivedNodes(t *testing.T) {
	g := tinyGraph(t, 10)
	c, err := NewFedSage("sage", g, quickOpts(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGenerated() == 0 {
		t.Fatal("no neighbours generated on a degree-skewed graph")
	}
	if c.augFeatures.Rows() != g.NumNodes()+c.NumGenerated() {
		t.Fatal("augmented feature matrix inconsistent")
	}
}

func TestFedSageFederates(t *testing.T) {
	g := tinyGraph(t, 11)
	var clients []fed.Client
	for i, p := range partiesOf(t, g, 2, 11) {
		c, err := NewFedSage("sage", p.Graph, quickOpts(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	trainImproves(t, clients, g.NumClasses, 40)
}

func TestKMeansBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two well-separated blobs.
	var pts [][]float64
	for i := 0; i < 20; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 0.1, 0})
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, []float64{10 + rng.NormFloat64()*0.1, 0})
	}
	assign := kMeans(pts, 2, 20, rng)
	for i := 1; i < 20; i++ {
		if assign[i] != assign[0] {
			t.Fatal("blob A split")
		}
	}
	for i := 21; i < 40; i++ {
		if assign[i] != assign[20] {
			t.Fatal("blob B split")
		}
	}
	if assign[0] == assign[20] {
		t.Fatal("blobs merged")
	}
	// k > n degrades gracefully.
	if got := kMeans(pts[:2], 5, 5, rng); len(got) != 2 {
		t.Fatal("k>n broken")
	}
	if got := kMeans(nil, 3, 5, rng); len(got) != 0 {
		t.Fatal("empty input broken")
	}
}

// NumGenerated reports how many neighbour nodes were synthesised.
func (c *FedSageClient) NumGenerated() int { return c.augFeatures.Rows() - c.numOrig }

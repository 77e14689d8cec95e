package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/partition"
)

func tinyCfg() dataset.Config {
	return dataset.Config{Name: "tiny", Nodes: 180, Edges: 500, Classes: 3, Features: 24,
		CommunitiesPerClass: 2, Homophily: 0.85, ActiveFeatures: 5, SignalRatio: 0.9}
}

func tinyGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := dataset.Generate(tinyCfg(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Split(rand.New(rand.NewSource(seed)), 0.1, 0.2, 0.2); err != nil {
		t.Fatal(err)
	}
	return g
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Dropout = 0
	cfg.LR = 0.03
	return cfg
}

func TestConfigValidation(t *testing.T) {
	g := tinyGraph(t, 1)
	bad := []func(Config) Config{
		func(c Config) Config { c.Hidden = 0; return c },
		func(c Config) Config { c.HiddenLayers = 0; return c },
		func(c Config) Config { c.MaxOrder = 1; return c },
		func(c Config) Config { c.LR = 0; return c },
		func(c Config) Config { c.LocalEpochs = 0; return c },
		func(c Config) Config { c.RangeB = c.RangeA; return c },
	}
	for i, mut := range bad {
		if _, err := NewClient("x", g, mut(DefaultConfig()), 1); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestNewClientsPartitions(t *testing.T) {
	g := tinyGraph(t, 2)
	clients, parties, err := NewClients(g, 3, 1.0, quickConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(parties) != 3 {
		t.Fatalf("parties = %d", len(parties))
	}
	total := 0
	for _, c := range clients {
		total += c.Graph().NumNodes()
	}
	if total != g.NumNodes() {
		t.Fatalf("node conservation: %d vs %d", total, g.NumNodes())
	}
}

func TestTrainLocalDecreasesLoss(t *testing.T) {
	g := tinyGraph(t, 3)
	c, err := NewClient("solo", g, quickConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.TrainLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 1; i < 80; i++ {
		last, err = c.TrainLocal(i)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	dec := c.LastLosses()
	if dec.CE <= 0 || dec.Total <= 0 {
		t.Fatalf("loss decomposition missing: %+v", dec)
	}
	if dec.Ortho < 0 || dec.CMD != 0 { // no global stats set, CMD inactive
		t.Fatalf("unexpected decomposition: %+v", dec)
	}
}

func TestEmptyTrainMaskIsNoop(t *testing.T) {
	g := tinyGraph(t, 4)
	g.TrainMask = nil
	c, err := NewClient("unlabelled", g, quickConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Params().Clone()
	loss, err := c.TrainLocal(0)
	if err != nil || loss != 0 {
		t.Fatalf("noop train: loss=%v err=%v", loss, err)
	}
	if d, _ := c.Params().L2Distance(before); d != 0 {
		t.Fatal("parameters changed without training data")
	}
}

func TestMomentProtocolShapes(t *testing.T) {
	g := tinyGraph(t, 5)
	cfg := quickConfig()
	cfg.HiddenLayers = 3
	c, err := NewClient("m", g, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	means, n, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumNodes() || len(means) != 3 {
		t.Fatalf("means: n=%d layers=%d", n, len(means))
	}
	for _, m := range means {
		if m.Rows() != 1 || m.Cols() != cfg.Hidden {
			t.Fatalf("mean shape %dx%d", m.Rows(), m.Cols())
		}
	}
	moms, _, err := c.CentralAroundGlobal(means)
	if err != nil {
		t.Fatal(err)
	}
	if len(moms) != 3 || len(moms[0]) != cfg.MaxOrder-1 {
		t.Fatalf("moment shapes: %d layers, %d orders", len(moms), len(moms[0]))
	}
	if _, _, err := c.CentralAroundGlobal(means[:1]); err == nil {
		t.Fatal("layer mismatch accepted")
	}
}

func TestCMDLossActivatesAfterStats(t *testing.T) {
	g := tinyGraph(t, 6)
	c, err := NewClient("cmd", g, quickConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Install deliberately shifted global stats so the CMD term is non-zero.
	means, _, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]*mat.Dense, len(means))
	for i, m := range means {
		shifted[i] = mat.Apply(m, func(x float64) float64 { return x + 0.3 })
	}
	moms, _, err := c.CentralAroundGlobal(shifted)
	if err != nil {
		t.Fatal(err)
	}
	c.SetGlobalStats(shifted, moms)
	if _, err := c.TrainLocal(0); err != nil {
		t.Fatal(err)
	}
	if c.LastLosses().CMD <= 0 {
		t.Fatalf("CMD loss inactive after stats: %+v", c.LastLosses())
	}
}

func TestAblationSwitches(t *testing.T) {
	g := tinyGraph(t, 7)
	cfg := quickConfig()
	cfg.UseOrtho = false
	cfg.UseCMD = false
	c, err := NewClient("abl", g, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	means, _, _ := c.LocalMeans()
	moms, _, _ := c.CentralAroundGlobal(means)
	c.SetGlobalStats(means, moms)
	if _, err := c.TrainLocal(0); err != nil {
		t.Fatal(err)
	}
	dec := c.LastLosses()
	if dec.Ortho != 0 || dec.CMD != 0 {
		t.Fatalf("ablated terms active: %+v", dec)
	}
	if dec.Total != dec.CE {
		t.Fatalf("total != CE with both terms off: %+v", dec)
	}
}

func TestFederatedFedOMDEndToEnd(t *testing.T) {
	g := tinyGraph(t, 8)
	clients, _, err := NewClients(g, 3, 1.0, quickConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	fc := make([]fed.Client, len(clients))
	for i, c := range clients {
		fc[i] = c
	}
	res, err := fed.Run(fed.Config{Rounds: 40, Patience: 0}, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 40 {
		t.Fatalf("history = %d rounds", len(res.History))
	}
	// Moment exchange must have produced upload traffic beyond weights only:
	// compare against a pure-FedAvg weight volume.
	weightBytes := int64(clients[0].Params().Bytes()) * int64(len(clients)) * 40
	if res.TotalBytesUp <= weightBytes {
		t.Fatal("no statistics traffic recorded; moment exchange inactive?")
	}
	// Learning happened: better than random guessing (1/3) on test.
	if res.TestAtBestVal < 0.40 {
		t.Fatalf("FedOMD test accuracy %.3f suspiciously low", res.TestAtBestVal)
	}
	// CMD became active on each client.
	for _, c := range clients {
		if c.globalMeans == nil {
			t.Fatal("global stats never delivered")
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		g := tinyGraph(t, 9)
		clients, _, err := NewClients(g, 2, 1.0, quickConfig(), 13)
		if err != nil {
			t.Fatal(err)
		}
		fc := make([]fed.Client, len(clients))
		for i, c := range clients {
			fc[i] = c
		}
		// Sequential so client RNG interleaving is fixed.
		res, err := fed.Run(fed.Config{Rounds: 5, Sequential: true}, fc)
		if err != nil {
			t.Fatal(err)
		}
		return res.History[4].TrainLoss
	}
	if run() != run() {
		t.Fatal("same seeds produced different training trajectories")
	}
}

// Graph exposes the client's local graph (read-only use).
func (c *Client) Graph() *graph.Graph { return c.g }

// Model exposes the underlying OrthoGCN (for ablation tooling). Like Params,
// it hands out the live weights and so drops the eval pass.
func (c *Client) Model() *nn.OrthoGCN {
	c.ev.valid = false
	return c.model
}

// LastLosses returns the loss decomposition of the most recent local step.
func (c *Client) LastLosses() Losses { return c.last }

// NewClients partitions a global graph into m parties with the Louvain cut
// at the given resolution and builds one FedOMD client per party, mirroring
// the paper's experimental setup (§5.1). Seeds are split from the base seed.
func NewClients(g *graph.Graph, m int, resolution float64, cfg Config, seed int64) ([]*Client, []partition.Party, error) {
	rng := rand.New(rand.NewSource(seed))
	parties, err := partition.LouvainParties(g, m, resolution, rng)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*Client, 0, len(parties))
	for i, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		c, err := NewClient(fmt.Sprintf("party-%d", i), p.Graph, cfg, seed+int64(i)+1)
		if err != nil {
			return nil, nil, err
		}
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		return nil, nil, fmt.Errorf("core: partition produced no non-empty parties")
	}
	return clients, parties, nil
}

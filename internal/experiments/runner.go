// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5). Each driver regenerates the corresponding result
// — same rows, same series — on the synthetic dataset substitutes, at either
// quick scale (minutes, shrunken datasets) or paper scale (full Table 2
// sizes). EXPERIMENTS.md records paper-vs-measured for every artefact.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"fedomd/internal/baselines"
	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/metrics"
	"fedomd/internal/partition"
)

// Model names, in the paper's table order.
const (
	ModelFedMLP   = "FedMLP"
	ModelSCAFFOLD = "SCAFFOLD"
	ModelFedProx  = "FedProx"
	ModelLocGCN   = "LocGCN"
	ModelFedGCN   = "FedGCN"
	ModelFedLIT   = "FedLIT"
	ModelFedSage  = "FedSage+"
	ModelFedOMD   = "FedOMD"
)

// ModelNames returns every evaluated model in Table 4's row order.
func ModelNames() []string {
	return []string{ModelFedMLP, ModelSCAFFOLD, ModelFedProx, ModelLocGCN,
		ModelFedGCN, ModelFedLIT, ModelFedSage, ModelFedOMD}
}

// Scale sizes an experiment run.
type Scale struct {
	Name string
	// DatasetDivisor shrinks node/edge/feature counts (1 = paper scale).
	DatasetDivisor int
	// Rounds and Patience bound federated training (paper: 1000 / 200).
	Rounds, Patience int
	// Seeds is the number of repetitions per cell (paper: 5).
	Seeds int
	// Hidden is the model width (paper: 64).
	Hidden int
	// LocalEpochs per round (paper communication interval: 1).
	LocalEpochs int
	// TrainFrac is the labelled-node fraction (paper: 0.01). Scaled-down
	// datasets raise it so the *absolute* label count per party matches the
	// paper's regime — 1% of a 1/8-scale graph leaves so few labels that
	// results become partition lottery. 0 means 0.01.
	TrainFrac float64
}

// QuickScale completes every experiment in minutes on a laptop while
// preserving orderings and trends.
func QuickScale() Scale {
	return Scale{Name: "quick", DatasetDivisor: 12, Rounds: 130, Patience: 45, Seeds: 2, Hidden: 32, LocalEpochs: 1, TrainFrac: 0.03}
}

// SmokeScale is for tests: tiny and fast.
func SmokeScale() Scale {
	return Scale{Name: "smoke", DatasetDivisor: 24, Rounds: 15, Patience: 0, Seeds: 1, Hidden: 16, LocalEpochs: 1}
}

// PaperScale reproduces the paper's settings (§5.1) on the full synthetic
// dataset sizes. Expect hours of CPU time.
func PaperScale() Scale {
	return Scale{Name: "paper", DatasetDivisor: 1, Rounds: 1000, Patience: 200, Seeds: 5, Hidden: 64, LocalEpochs: 1}
}

// buildOpts carries per-experiment model overrides beyond Scale.
type buildOpts struct {
	hiddenLayers     int // FedOMD depth (Table 7); 0 ⇒ default 2
	useOrtho, useCMD *bool
	alpha, beta      *float64 // Figure 6 sweeps
}

// Runner executes experiment cells at a fixed scale with a deterministic
// seed schedule.
type Runner struct {
	Scale    Scale
	BaseSeed int64
	// Jobs bounds how many grid cells run concurrently (0 or negative means
	// GOMAXPROCS). Every cell derives all of its randomness from the seed
	// schedule — never from the scheduler — so the tables are byte-identical
	// at any Jobs value.
	Jobs int
}

// NewRunner returns a Runner with the given scale and base seed.
func NewRunner(s Scale, baseSeed int64) *Runner {
	return &Runner{Scale: s, BaseSeed: baseSeed}
}

func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// loadGraph generates the (scaled) named dataset and applies the paper's
// 1%/20%/20% stratified split.
func (r *Runner) loadGraph(name string, seed int64) (*graph.Graph, error) {
	cfg, err := dataset.Preset(name)
	if err != nil {
		return nil, err
	}
	cfg = dataset.Scaled(cfg, r.Scale.DatasetDivisor)
	g, err := dataset.Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	trainFrac := r.Scale.TrainFrac
	if trainFrac == 0 {
		trainFrac = 0.01
	}
	if err := g.Split(rand.New(rand.NewSource(seed+1)), trainFrac, 0.2, 0.2); err != nil {
		return nil, err
	}
	return g, nil
}

// parties cuts a graph into m Louvain parties at the given resolution.
func (r *Runner) parties(g *graph.Graph, m int, resolution float64, seed int64) ([]partition.Party, error) {
	return partition.LouvainParties(g, m, resolution, rand.New(rand.NewSource(seed)))
}

// buildClients constructs the named model's federated clients over parties.
// It also reports whether the model trains without federation (LocGCN).
func (r *Runner) buildClients(model string, parties []partition.Party, seed int64, bo buildOpts) ([]fed.Client, bool, error) {
	opts := baselines.Options{
		Hidden:      r.Scale.Hidden,
		LR:          0.01,
		WeightDecay: 1e-4,
		Dropout:     0.5,
		LocalEpochs: r.Scale.LocalEpochs,
	}
	var clients []fed.Client
	localOnly := false
	idx := 0
	for _, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		name := fmt.Sprintf("%s-party-%d", model, idx)
		cseed := seed + int64(idx) + 1
		var (
			c   fed.Client
			err error
		)
		switch model {
		case ModelFedMLP:
			c, err = baselines.NewFedMLP(name, p.Graph, opts, cseed)
		case ModelFedProx:
			// With a single local step the proximal gradient μ(w − w_global)
			// is exactly zero (w starts at w_global), degenerating FedProx
			// into FedMLP; multiple local epochs activate the term.
			pOpts := opts
			pOpts.LocalEpochs = maxInt(3, opts.LocalEpochs)
			c, err = baselines.NewFedProx(name, p.Graph, pOpts, cseed)
		case ModelSCAFFOLD:
			sOpts := opts
			// SCAFFOLD takes plain SGD steps (the control variates correct
			// raw gradients), so it needs a larger rate than the Adam-based
			// clients, and at least two local steps for the variates to act.
			sOpts.LR = 0.3
			sOpts.LocalEpochs = maxInt(2, opts.LocalEpochs)
			c, err = baselines.NewScaffold(name, p.Graph, sOpts, cseed)
		case ModelLocGCN:
			localOnly = true
			c, err = baselines.NewGCNClient(name, p.Graph, opts, cseed)
		case ModelFedGCN:
			c, err = baselines.NewGCNClient(name, p.Graph, opts, cseed)
		case ModelFedLIT:
			c, err = baselines.NewFedLIT(name, p.Graph, 3, opts, cseed)
		case ModelFedSage:
			c, err = baselines.NewFedSage(name, p.Graph, opts, cseed)
		case ModelFedOMD:
			cfg := core.DefaultConfig()
			cfg.Hidden = r.Scale.Hidden
			cfg.LocalEpochs = r.Scale.LocalEpochs
			if bo.hiddenLayers > 0 {
				cfg.HiddenLayers = bo.hiddenLayers
			}
			if bo.useOrtho != nil {
				cfg.UseOrtho = *bo.useOrtho
			}
			if bo.useCMD != nil {
				cfg.UseCMD = *bo.useCMD
			}
			if bo.alpha != nil {
				cfg.Alpha = *bo.alpha
			}
			if bo.beta != nil {
				cfg.Beta = *bo.beta
			}
			c, err = core.NewClient(name, p.Graph, cfg, cseed)
		default:
			return nil, false, fmt.Errorf("experiments: unknown model %q", model)
		}
		if err != nil {
			return nil, false, fmt.Errorf("experiments: building %s: %w", name, err)
		}
		clients = append(clients, c)
		idx++
	}
	if len(clients) == 0 {
		return nil, false, fmt.Errorf("experiments: no non-empty parties for %s", model)
	}
	return clients, localOnly, nil
}

// Clients builds the named model's clients over parties with default model
// options and reports whether it trains without federation (LocGCN).
func (r *Runner) Clients(model string, parties []partition.Party, seed int64) ([]fed.Client, bool, error) {
	return r.buildClients(model, parties, seed, buildOpts{})
}

// runModel federates the named model over parties and returns the result.
func (r *Runner) runModel(model string, parties []partition.Party, seed int64, bo buildOpts) (*fed.Result, error) {
	clients, localOnly, err := r.buildClients(model, parties, seed, bo)
	if err != nil {
		return nil, err
	}
	cfg := fed.Config{Rounds: r.Scale.Rounds, Patience: r.Scale.Patience}
	if localOnly {
		return fed.RunLocalOnly(cfg, clients)
	}
	return fed.Run(cfg, clients)
}

// cell measures one table cell: mean±std of test accuracy (at best
// validation) over the seed schedule.
func (r *Runner) cell(model, ds string, m int, resolution float64, bo buildOpts) (metrics.Cell, error) {
	var c metrics.Cell
	for s := 0; s < r.Scale.Seeds; s++ {
		seed := r.BaseSeed + int64(1000*s)
		g, err := r.loadGraph(ds, seed)
		if err != nil {
			return c, err
		}
		parties, err := r.parties(g, m, resolution, seed+7)
		if err != nil {
			return c, err
		}
		res, err := r.runModel(model, parties, seed+13, bo)
		if err != nil {
			return c, err
		}
		c.Add(res.TestAtBestVal)
	}
	return c, nil
}

// cellSpec identifies one table cell to evaluate. label is the error context
// ("table4 cora/FedOMD/M=3") a failing cell is reported under.
type cellSpec struct {
	label      string
	model, ds  string
	m          int
	resolution float64
	bo         buildOpts
}

// runCells evaluates every spec with a pool of at most jobs() workers and
// returns the cells in spec order. Each cell is a pure function of (spec,
// Scale, BaseSeed) — graphs, partitions, and clients are all rebuilt from the
// seed schedule inside the cell — so the result is identical to a serial
// sweep no matter how the scheduler interleaves the workers. On failure every
// in-flight cell is drained and the first error in spec order is returned.
func (r *Runner) runCells(specs []cellSpec) ([]metrics.Cell, error) {
	cells := make([]metrics.Cell, len(specs))
	workers := r.jobs()
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, sp := range specs {
			c, err := r.cell(sp.model, sp.ds, sp.m, sp.resolution, sp.bo)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.label, err)
			}
			cells[i] = c
		}
		return cells, nil
	}
	var (
		idx  = make(chan int)
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[int]error)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				sp := specs[i]
				c, err := r.cell(sp.model, sp.ds, sp.m, sp.resolution, sp.bo)
				if err != nil {
					mu.Lock()
					errs[i] = fmt.Errorf("%s: %w", sp.label, err)
					mu.Unlock()
					continue
				}
				cells[i] = c
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if len(errs) > 0 {
		for i := range specs {
			if err, ok := errs[i]; ok {
				return nil, err
			}
		}
	}
	return cells, nil
}

// defaultResolution mirrors §5.1: the Louvain default (1.0) on the citation
// graphs and 20 on the denser co-purchase graphs.
func defaultResolution(ds string) float64 {
	switch ds {
	case dataset.Computer, dataset.Photo:
		return 20
	default:
		return 1.0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// progress emits a short status line when w is non-nil.
func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

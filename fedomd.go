// Package fedomd is the public API of the FedOMD reproduction: graph
// federated learning with center-moment constraints for node classification
// (Tang et al., ICPP Workshops 2024).
//
// The package wires together the internal substrates — synthetic dataset
// generation, Louvain partitioning into non-i.i.d parties, the orthogonal
// GCN with CMD constraints, the seven baselines, and the federated runtime —
// behind a small surface:
//
//	g, _ := fedomd.GenerateDataset("cora", 1, seed)
//	parties, _ := fedomd.Partition(g, 3, 1.0, seed)
//	res, _ := fedomd.TrainFedOMD(parties, fedomd.DefaultConfig(), fedomd.RunOptions{Rounds: 200}, seed)
//	fmt.Println(res.TestAtBestVal)
//
// For regenerating the paper's tables and figures, see NewExperiments and
// cmd/experiments.
package fedomd

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"fedomd/internal/chaos"
	"fedomd/internal/codec"
	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/experiments"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/obs"
	"fedomd/internal/partition"
	"fedomd/internal/telemetry"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Graph is an undirected attributed graph with train/val/test masks.
	Graph = graph.Graph
	// Party is one client's local subgraph plus its original node ids.
	Party = partition.Party
	// Config holds FedOMD's hyper-parameters (eq. 12's α and β, depth, …).
	Config = core.Config
	// Client is a federated participant; FedOMD and all baselines satisfy it.
	Client = fed.Client
	// Result summarises a federated run (history, best accuracy, traffic).
	Result = fed.Result
	// RoundStats is one communication round's record.
	RoundStats = fed.RoundStats
	// DatasetConfig parameterises the synthetic dataset generator.
	DatasetConfig = dataset.Config
	// Recorder receives run telemetry (counters, gauges, histograms, span
	// timers); see RunOptions.Recorder. Nil always means "off, for free".
	Recorder = telemetry.Recorder
	// TelemetryAggregator is the in-memory Recorder; its Report method
	// renders the per-run timing/comms table.
	TelemetryAggregator = telemetry.Aggregator
	// TraceWriter is the JSONL trace-event Recorder.
	TraceWriter = telemetry.JSONL
	// ModelSpec is the versioned model-architecture header stamped onto
	// checkpoints so they can be rebuilt standalone (see internal/serve).
	ModelSpec = fed.ModelSpec
	// FailurePolicy selects how the runtime reacts to a failing party
	// (FailFast, DropRound, or Quarantine).
	FailurePolicy = fed.FailurePolicy
	// QuorumPolicy selects between aborting and skipping a round when fewer
	// than MinClients parties survive it.
	QuorumPolicy = fed.QuorumPolicy
	// ChaosOptions schedules deterministic fault injection over the client
	// fleet (see RunOptions.Chaos).
	ChaosOptions = chaos.FleetConfig
	// Tracer emits distributed-tracing spans (rounds, phases, per-party
	// train/upload, codec encode/decode, RPC calls) onto a trace stream.
	// A nil *Tracer is inert — every method is a no-op.
	Tracer = obs.Tracer
	// SpanContext identifies a span (trace ID + span ID) for parenting.
	SpanContext = obs.SpanContext
	// RoundObserver receives one RoundObservation after every completed
	// round (see RunOptions.Observer); Health implements it.
	RoundObserver = obs.RoundObserver
	// RoundObservation is the per-round digest handed to observers.
	RoundObservation = obs.RoundObservation
	// Health is the run-health rule engine (non-finite screens, accuracy
	// regression, straggler skew, quarantine growth, codec resets).
	Health = obs.Health
	// HealthConfig tunes the health rules' thresholds.
	HealthConfig = obs.HealthConfig
	// HealthEvent is one warn/critical finding from the health monitors.
	HealthEvent = obs.HealthEvent
	// BuildInfo captures version/toolchain/run metadata for exposition.
	BuildInfo = obs.BuildInfo
	// HTTPServer is a bound HTTP server with graceful Shutdown — the shared
	// lifecycle for the debug and serving listeners.
	HTTPServer = obs.HTTPServer
)

// Failure and quorum policies, re-exported for RunOptions.
const (
	FailFast   = fed.FailFast
	DropRound  = fed.DropRound
	Quarantine = fed.Quarantine

	QuorumAbort = fed.QuorumAbort
	QuorumSkip  = fed.QuorumSkip
)

// ErrQuorumLost reports a run aborted because fewer than MinClients parties
// survived a round; match with errors.Is.
var ErrQuorumLost = fed.ErrQuorumLost

// ParseFailurePolicy maps a flag spelling ("failfast", "drop-round",
// "quarantine", …) to a FailurePolicy.
func ParseFailurePolicy(s string) (FailurePolicy, error) { return fed.ParseFailurePolicy(s) }

// NewTelemetryAggregator returns an in-memory telemetry sink whose Report
// renders per-phase timing (count, total, mean, p50, p95) and comms totals.
func NewTelemetryAggregator() *TelemetryAggregator { return telemetry.NewAggregator() }

// NewTraceWriter returns a Recorder streaming one JSON event per line to w.
// Close (or Flush) it when the run ends.
func NewTraceWriter(w io.Writer) *TraceWriter { return telemetry.NewJSONL(w) }

// MultiRecorder fans telemetry out to several recorders (e.g. an aggregator
// for the report plus a trace writer).
func MultiRecorder(rs ...Recorder) Recorder { return telemetry.Multi(rs...) }

// PublishTelemetryExpvar exposes the aggregator (and the process-global
// autodiff/SpMM counters) on expvar's /debug/vars for live profiling.
func PublishTelemetryExpvar(a *TelemetryAggregator) { telemetry.PublishExpvar(a) }

// NewTracer returns a Tracer streaming span and event records to the trace
// writer (interleaved with its telemetry events). A nil writer returns a nil
// Tracer, which is valid and free everywhere a *Tracer is accepted.
func NewTracer(sink *TraceWriter) *Tracer {
	if sink == nil {
		return nil
	}
	return obs.NewTracer(sink)
}

// NewRunID returns a fresh random run identifier (16 hex digits) for
// RunOptions.RunID and trace headers.
func NewRunID() string { return obs.NewRunID() }

// NewHealthMonitor returns the default run-health rule engine. Events are
// emitted onto the tracer's stream (when non-nil), counted on the recorder
// ("obs/health_warn", "obs/health_critical"), and retained for Events().
func NewHealthMonitor(cfg HealthConfig, tr *Tracer, rec Recorder) *Health {
	return obs.NewHealth(cfg, tr, rec)
}

// MultiObserver fans round observations out to several observers in order
// (e.g. the health monitor plus an observer of your own).
func MultiObserver(os ...RoundObserver) RoundObserver { return obs.MultiRoundObserver(os) }

// CollectBuildInfo captures the binary's module version and toolchain plus
// the run's codec and failure-policy settings.
func CollectBuildInfo(codecName, policy string) BuildInfo {
	return obs.CollectBuildInfo(codecName, policy)
}

// MetricsHandler serves the aggregator (plus process-global counters) in
// Prometheus text exposition format. build may be nil.
func MetricsHandler(a *TelemetryAggregator, build *BuildInfo) http.Handler {
	return obs.MetricsHandler(a, build)
}

// WriteExposition renders the aggregator's state as Prometheus text format.
func WriteExposition(w io.Writer, a *TelemetryAggregator, build *BuildInfo) {
	obs.WriteExposition(w, a, build)
}

// LintExposition validates Prometheus text-format output (names, duplicate
// series, histogram bucket invariants), returning one message per problem.
func LintExposition(r io.Reader) []string { return obs.LintExposition(r) }

// StartHTTPServer binds addr synchronously and serves handler in the
// background; the returned server's Shutdown drains in-flight requests, so
// SIGINT handlers and tests don't leak listeners.
func StartHTTPServer(addr string, handler http.Handler) (*HTTPServer, error) {
	return obs.StartHTTPServer(addr, handler)
}

// Model names accepted by TrainBaseline, in the paper's table order.
const (
	FedMLP   = experiments.ModelFedMLP
	SCAFFOLD = experiments.ModelSCAFFOLD
	FedProx  = experiments.ModelFedProx
	LocGCN   = experiments.ModelLocGCN
	FedGCN   = experiments.ModelFedGCN
	FedLIT   = experiments.ModelFedLIT
	FedSage  = experiments.ModelFedSage
	FedOMD   = experiments.ModelFedOMD
)

// Models lists every trainable model name.
func Models() []string { return experiments.ModelNames() }

// Datasets lists the five paper dataset presets.
func Datasets() []string { return dataset.Names() }

// DefaultConfig returns the paper's FedOMD hyper-parameters (§5.1):
// α = 0.0005, β = 10, 2 hidden layers of width 64, CMD order 5.
func DefaultConfig() Config { return core.DefaultConfig() }

// GenerateDataset builds the named synthetic dataset (see Datasets) scaled
// down by divisor (1 = the paper's Table 2 size) and applies the paper's
// 1%/20%/20% stratified train/val/test split.
func GenerateDataset(name string, divisor int, seed int64) (*Graph, error) {
	cfg, err := dataset.Preset(name)
	if err != nil {
		return nil, err
	}
	return GenerateCustom(dataset.Scaled(cfg, divisor), seed)
}

// GenerateCustom builds a dataset from an explicit generator configuration
// and applies the standard split.
func GenerateCustom(cfg DatasetConfig, seed int64) (*Graph, error) {
	g, err := dataset.Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	if err := g.Split(rand.New(rand.NewSource(seed+1)), 0.01, 0.2, 0.2); err != nil {
		return nil, err
	}
	return g, nil
}

// SaveGraph writes a graph (with masks) to path as sparse JSON.
func SaveGraph(g *Graph, path string) error { return g.SaveFile(path) }

// LoadGraph reads a graph written by SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// Partition cuts a global graph into m non-i.i.d parties with the Louvain
// algorithm at the given resolution (the paper's "Louvain-cut", §5.1).
func Partition(g *Graph, m int, resolution float64, seed int64) ([]Party, error) {
	return partition.LouvainParties(g, m, resolution, rand.New(rand.NewSource(seed)))
}

// PartitionRandom splits nodes uniformly at random into m parties — the
// near-i.i.d control setting.
func PartitionRandom(g *Graph, m int, seed int64) ([]Party, error) {
	return partition.RandomParties(g, m, rand.New(rand.NewSource(seed)))
}

// PartitionBalanced grows m size-balanced, locally connected parties by
// multi-source BFS — between PartitionRandom and Partition (Louvain) on the
// non-i.i.d spectrum.
func PartitionBalanced(g *Graph, m int, seed int64) ([]Party, error) {
	return partition.BalancedParties(g, m, rand.New(rand.NewSource(seed)))
}

// NonIIDScore quantifies how heterogeneous a partition's label
// distributions are (0 = i.i.d; toward 1 = heavily skewed) — the phenomenon
// of Figure 4.
func NonIIDScore(parties []Party, numClasses int) float64 {
	return partition.NonIIDScore(parties, numClasses)
}

// RunOptions controls federated training.
type RunOptions struct {
	// Rounds is the number of communication rounds (default 200).
	Rounds int
	// Patience enables early stopping on validation accuracy (0 = off).
	Patience int
	// Sequential disables concurrent client training.
	Sequential bool
	// EvalEvery measures validation/test accuracy every N rounds; 0 or 1
	// evaluates every round.
	EvalEvery int
	// Recorder receives the run's telemetry: per-round phase spans,
	// per-client train-duration histograms and communication counters
	// (plus RPC metrics for distributed runs). Nil disables telemetry.
	Recorder Recorder
	// Tracer emits distributed-tracing spans for the run (round, phases,
	// per-party train/upload, codec encode/decode; RPC spans on distributed
	// runs). Nil disables tracing for free.
	Tracer *Tracer
	// Observer receives a RoundObservation after every completed round —
	// typically NewHealthMonitor(...). Nil disables observation.
	Observer RoundObserver
	// RunID tags the run's Result, trace spans, and JSONL header; empty
	// means a fresh NewRunID is generated.
	RunID string

	// Policy selects the failure-handling mode; the zero value FailFast
	// aborts on the first party error, exactly as before.
	Policy FailurePolicy
	// ClientTimeout bounds every individual party call; an expiry counts as
	// a failure under Policy. 0 disables the bound.
	ClientTimeout time.Duration
	// MinClients is the per-round survivor quorum (values below 1 mean 1).
	MinClients int
	// QuorumPolicy picks between aborting (default) and skipping the round
	// when quorum is lost.
	QuorumPolicy QuorumPolicy
	// MaxStrikes and CooldownRounds tune the Quarantine policy's benching.
	MaxStrikes     int
	CooldownRounds int

	// CheckpointPath persists a server snapshot every CheckpointEvery rounds
	// (default 10 when only the path is set); ResumePath restarts from one.
	CheckpointPath  string
	CheckpointEvery int
	ResumePath      string
	// Spec seeds the checkpoint model header with dataset identity
	// (Dataset/Divisor/DataSeed); TrainFedOMD fills the architecture
	// fields itself. Nil still gets an architecture-only header.
	Spec *ModelSpec

	// Chaos, when set, wraps every client in a deterministic fault injector
	// before the run starts (in-process runs only: every trainer but
	// CoordinateFedOMD).
	Chaos *ChaosOptions

	// Codec selects the parameter-payload compression tier: "" or "raw"
	// (off), "delta" (lossless XOR-delta; bit-identical results), "float32",
	// "quant", or the shorthands "q8"/"q4" (uniform quantization with error
	// feedback). Lossy tiers trade a bounded accuracy drift for a 4–8×
	// traffic cut; see DESIGN.md §10.
	Codec string
	// QuantBits is the quantization width for Codec == "quant" (8 or 4;
	// 0 means 8). The "q8"/"q4" spellings set it implicitly.
	QuantBits int
	// TopK, when in (0, 1), additionally keeps only that fraction of each
	// tensor's delta entries per round (largest by magnitude); the remainder
	// rides the error-feedback residual into later rounds.
	TopK float64

	// Aggregation selects the round topology: "" or "sync" (barriered
	// rounds, the historical behavior) or "async" (buffered no-barrier
	// rounds with staleness-discounted folding; see DESIGN.md §14).
	Aggregation string
	// BufferK is the async buffer threshold (0 = ⌈M/2⌉), MaxStaleness the
	// eviction bound in rounds (0 = 8), StalenessAlpha the discount
	// exponent (0 = 1), and BufferTimeout the per-round collect deadline
	// (0 = none). All are ignored in sync mode.
	BufferK        int
	MaxStaleness   int
	StalenessAlpha float64
	BufferTimeout  time.Duration
}

// fedConfig lowers the options to the runtime's Config: it applies the
// 200-round default, loads the resume checkpoint and installs the file
// checkpointer when paths are set.
func (o RunOptions) fedConfig() (fed.Config, error) {
	if o.Rounds == 0 {
		o.Rounds = 200
	}
	cfg := fed.Config{
		Rounds:          o.Rounds,
		Patience:        o.Patience,
		Sequential:      o.Sequential,
		EvalEvery:       o.EvalEvery,
		Recorder:        o.Recorder,
		Policy:          o.Policy,
		ClientTimeout:   o.ClientTimeout,
		MinClients:      o.MinClients,
		QuorumPolicy:    o.QuorumPolicy,
		MaxStrikes:      o.MaxStrikes,
		CooldownRounds:  o.CooldownRounds,
		CheckpointEvery: o.CheckpointEvery,
		Spec:            o.Spec,
		Tracer:          o.Tracer,
		Observer:        o.Observer,
		RunID:           o.RunID,
	}
	co, err := codec.Parse(o.Codec, o.QuantBits, o.TopK)
	if err != nil {
		return cfg, err
	}
	cfg.Codec = co
	agg, err := fed.ParseAggregation(o.Aggregation)
	if err != nil {
		return cfg, err
	}
	cfg.Aggregation = agg
	cfg.BufferK = o.BufferK
	cfg.MaxStaleness = o.MaxStaleness
	cfg.StalenessAlpha = o.StalenessAlpha
	cfg.BufferTimeout = o.BufferTimeout
	if o.CheckpointPath != "" {
		cfg.CheckpointWriter = fed.FileCheckpointer(o.CheckpointPath)
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 10
		}
	}
	if o.ResumePath != "" {
		ck, err := fed.LoadCheckpointFile(o.ResumePath)
		if err != nil {
			return cfg, fmt.Errorf("fedomd: loading resume checkpoint: %w", err)
		}
		cfg.Resume = ck
	}
	return cfg, nil
}

// wrapChaos applies the configured fault injection to the fleet, defaulting
// the injectors' trace annotations onto the run's tracer.
func (o RunOptions) wrapChaos(clients []fed.Client) []fed.Client {
	if o.Chaos == nil {
		return clients
	}
	cc := *o.Chaos
	if cc.Tracer == nil {
		cc.Tracer = o.Tracer
	}
	return chaos.WrapFleet(clients, cc)
}

// run is where every in-process trainer ends: the options are lowered once,
// chaos wraps the fleet, and the clients train federated or, for LocGCN,
// local-only (which refuses the options it cannot honour).
func run(opts RunOptions, clients []fed.Client, localOnly bool) (*Result, error) {
	cfg, err := opts.fedConfig()
	if err != nil {
		return nil, err
	}
	clients = opts.wrapChaos(clients)
	if localOnly {
		return fed.RunLocalOnly(cfg, clients)
	}
	return fed.Run(cfg, clients)
}

// TrainFedOMD builds one FedOMD client per party and runs federated
// training under Algorithm 1 (FedAvg + the 2-round moment exchange).
func TrainFedOMD(parties []Party, cfg Config, opts RunOptions, seed int64) (*Result, error) {
	return trainFedOMD(parties, cfg, nil, opts, seed)
}

// DPConfig re-exports the Gaussian-mechanism configuration for private
// statistic uploads (see fed.DPConfig).
type DPConfig = fed.DPConfig

// TrainFedOMDPrivate is TrainFedOMD with every party's statistic uploads
// clipped and noised under (ε, δ)-differential privacy. Weight uploads are
// unchanged (secure aggregation is orthogonal to this mechanism).
func TrainFedOMDPrivate(parties []Party, cfg Config, dp DPConfig, opts RunOptions, seed int64) (*Result, error) {
	return trainFedOMD(parties, cfg, &dp, opts, seed)
}

// trainFedOMD builds one FedOMD client per non-empty party, wrapped in the
// DP mechanism when dp is set, and runs them under a checkpoint header that
// carries the architecture beside any dataset identity the caller seeded.
func trainFedOMD(parties []Party, cfg Config, dp *DPConfig, opts RunOptions, seed int64) (*Result, error) {
	spec := ModelSpec{SpecVersion: fed.SpecVersion, Model: "fedomd", Hidden: cfg.Hidden,
		HiddenLayers: cfg.HiddenLayers, Dropout: cfg.Dropout, SpectralBound: true}
	if s := opts.Spec; s != nil {
		spec.Dataset, spec.Divisor, spec.DataSeed = s.Dataset, s.Divisor, s.DataSeed
	}
	var clients []fed.Client
	for _, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		idx := int64(len(clients))
		if idx == 0 {
			spec.Features, spec.Classes = p.Graph.NumFeatures(), p.Graph.NumClasses
		}
		oc, err := core.NewClient(fmt.Sprintf("party-%d", idx), p.Graph, cfg, seed+idx+1)
		if err != nil {
			return nil, err
		}
		var c fed.Client = oc
		if dp != nil {
			if c, err = fed.WithDP(oc, *dp, rand.New(rand.NewSource(seed+1000+idx))); err != nil {
				return nil, err
			}
		}
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fedomd: no non-empty parties")
	}
	opts.Spec = &spec
	return run(opts, clients, false)
}

// TrainBaseline trains one of the named comparison models (see Models) over
// the parties with every RunOptions field applied. FedOMD trains as
// TrainFedOMD with DefaultConfig; LocGCN trains without any federation, as
// in the paper, and refuses the options a local-only run cannot honour.
func TrainBaseline(model string, parties []Party, opts RunOptions, seed int64) (*Result, error) {
	if model == FedOMD {
		return TrainFedOMD(parties, DefaultConfig(), opts, seed)
	}
	runner := experiments.NewRunner(experiments.Scale{Hidden: 64, LocalEpochs: 1}, seed)
	clients, localOnly, err := runner.Clients(model, parties, seed)
	if err != nil {
		return nil, err
	}
	return run(opts, clients, localOnly)
}

// ServeParty builds a FedOMD client over one party's local subgraph and
// serves it to the coordinator at addr over the gob RPC protocol, returning
// when the coordinator shuts the federation down. Raw features never leave
// the process: only weights and moment statistics cross the wire.
func ServeParty(addr, name string, party Party, cfg Config, seed int64) error {
	return ServePartyOpts(addr, name, party, cfg, seed, PartyOptions{})
}

// PartyOptions controls a served party's transport: deadlines, a Recorder
// for per-op handling telemetry, and a Tracer whose spans parent under the
// trace context the coordinator stamps into each request frame.
type PartyOptions = fed.ServeOptions

// ServePartyOpts is ServeParty with explicit transport options.
func ServePartyOpts(addr, name string, party Party, cfg Config, seed int64, opts PartyOptions) error {
	c, err := core.NewClient(name, party.Graph, cfg, seed)
	if err != nil {
		return err
	}
	return fed.ServeClientOpts(addr, c, opts)
}

// CoordinateFedOMD accepts n parties on ln and drives the federated protocol
// (FedAvg + the 2-round moment exchange) over the network. The failure
// policy, timeout, quorum, and checkpoint options all apply; Chaos does not
// (faults on a distributed run are injected at the link layer instead — see
// internal/chaos's Conn and FlakyListener).
func CoordinateFedOMD(ln net.Listener, n int, opts RunOptions) (*Result, error) {
	cfg, err := opts.fedConfig()
	if err != nil {
		return nil, err
	}
	return fed.RunDistributed(cfg, ln, n)
}

// Experiments drives the regeneration of every paper table and figure.
type Experiments = experiments.Runner

// NewExperiments returns an experiment runner. scale is "quick" (minutes,
// shrunken datasets), "paper" (full Table 2 sizes, hours of CPU), or
// "smoke" (seconds, for CI).
func NewExperiments(scale string, seed int64) (*Experiments, error) {
	switch scale {
	case "quick":
		return experiments.NewRunner(experiments.QuickScale(), seed), nil
	case "paper":
		return experiments.NewRunner(experiments.PaperScale(), seed), nil
	case "smoke":
		return experiments.NewRunner(experiments.SmokeScale(), seed), nil
	default:
		return nil, fmt.Errorf("fedomd: unknown scale %q (want quick, paper or smoke)", scale)
	}
}

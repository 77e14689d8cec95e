// Command fedomd trains one federated configuration and reports the
// per-round trajectory and the final accuracy.
//
// Usage:
//
//	fedomd -dataset cora -model FedOMD -parties 3 -rounds 100
//	fedomd -dataset computer -model FedGCN -parties 5 -divisor 8
//
// Observability:
//
//	fedomd -report                  # per-phase timing table + comms totals
//	fedomd -trace out.jsonl         # distributed trace: spans + events, JSONL
//	fedomd -debug-addr :6060        # live pprof + expvar + /metrics (Prometheus)
//
// Robustness:
//
//	fedomd -policy drop-round -client-timeout 30s     # tolerate party failures
//	fedomd -checkpoint run.ckpt -checkpoint-every 10  # snapshot the server
//	fedomd -resume run.ckpt                           # restart a killed run
//	fedomd -chaos -chaos-crash-frac 0.2 -policy drop-round  # fault-injection soak
//
// Communication:
//
//	fedomd -codec delta                 # lossless delta compression
//	fedomd -codec q8 -report            # 8-bit quantization + error feedback
//	fedomd -codec q8 -topk 0.1          # ... plus top-10% sparsification
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"sort"
	"time"

	"fedomd"
)

// debugHandler is the -debug-addr surface: /debug/pprof and /debug/vars
// (registered on the default mux by the net/http/pprof and expvar imports),
// with the live telemetry counters and build info published to expvar, plus
// /metrics rendered from the aggregator.
func debugHandler(agg *fedomd.TelemetryAggregator, build *fedomd.BuildInfo) http.Handler {
	fedomd.PublishTelemetryExpvar(agg)
	build.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/debug/", http.DefaultServeMux)
	mux.Handle("/metrics", fedomd.MetricsHandler(agg, build))
	return mux
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedomd:", err)
		os.Exit(1)
	}
}

// run parses args, trains one configuration and prints its report. The trace
// file and the debug server close on every return, failed runs included.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("fedomd", flag.ExitOnError)
	ds := fs.String("dataset", "cora", "dataset preset: cora, citeseer, computer, photo, coauthor-cs")
	divisor := fs.Int("divisor", 8, "dataset shrink divisor (1 = paper scale)")
	model := fs.String("model", fedomd.FedOMD, "model to train (see -list)")
	parties := fs.Int("parties", 3, "number of federated parties M")
	resolution := fs.Float64("resolution", 0, "Louvain resolution (0 = paper default per dataset)")
	rounds := fs.Int("rounds", 100, "communication rounds")
	patience := fs.Int("patience", 25, "early-stopping patience (0 = off)")
	seed := fs.Int64("seed", 1, "random seed")
	hidden := fs.Int("hidden", 64, "hidden width (FedOMD)")
	layers := fs.Int("layers", 2, "hidden layers (FedOMD)")
	alpha := fs.Float64("alpha", 0.0005, "orthogonality loss weight (FedOMD)")
	beta := fs.Float64("beta", 10, "CMD loss weight (FedOMD)")
	dpEps := fs.Float64("dp-epsilon", 0, "if > 0, apply (ε, δ)-DP to FedOMD statistic uploads")
	dpDelta := fs.Float64("dp-delta", 1e-5, "DP δ (with -dp-epsilon)")
	dpClip := fs.Float64("dp-clip", 1, "DP L2 clip bound (with -dp-epsilon)")
	policy := fs.String("policy", "failfast", "failure policy: failfast, drop-round, or quarantine")
	clientTimeout := fs.Duration("client-timeout", 0, "per-call client timeout (0 = unbounded)")
	minClients := fs.Int("min-clients", 1, "per-round survivor quorum")
	skipQuorum := fs.Bool("skip-on-quorum-loss", false, "skip a round losing quorum instead of aborting")
	maxStrikes := fs.Int("max-strikes", 3, "consecutive failed rounds before quarantine benches a party")
	cooldown := fs.Int("cooldown", 1, "base quarantine bench duration in rounds (doubles per re-bench)")
	checkpoint := fs.String("checkpoint", "", "snapshot the server state to this file during the run")
	checkpointEvery := fs.Int("checkpoint-every", 10, "rounds between checkpoints (with -checkpoint)")
	resume := fs.String("resume", "", "resume from a checkpoint file written by -checkpoint")
	chaosOn := fs.Bool("chaos", false, "wrap every party in a deterministic fault injector")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-injection seed (with -chaos)")
	chaosErrRate := fs.Float64("chaos-err-rate", 0, "per-call transient failure probability (with -chaos)")
	chaosCrashFrac := fs.Float64("chaos-crash-frac", 0, "fraction of parties crashing permanently (with -chaos)")
	chaosCrashRound := fs.Int("chaos-crash-round", 3, "round the chosen parties crash at (with -chaos)")
	chaosNaNRate := fs.Float64("chaos-nan-rate", 0, "per-upload NaN-poisoning probability (with -chaos)")
	chaosLatency := fs.Duration("chaos-latency", 0, "injected per-call latency (with -chaos)")
	chaosSlowFrac := fs.Float64("chaos-slow-frac", 0, "fraction of parties degraded to sustained stragglers (with -chaos)")
	chaosSlowLatency := fs.Duration("chaos-slow-latency", 0, "per-call latency at the sustained-slow parties (with -chaos-slow-frac)")
	aggregation := fs.String("aggregation", "", "round topology: sync (barriered, default) or async (buffered no-barrier)")
	bufferK := fs.Int("buffer-k", 0, "async buffer threshold K (0 = half the fleet, rounded up)")
	maxStaleness := fs.Int("max-staleness", 0, "async staleness eviction bound in rounds (0 = 8)")
	stalenessAlpha := fs.Float64("staleness-alpha", 0, "async staleness discount exponent (0 = 1)")
	bufferTimeout := fs.Duration("buffer-timeout", 0, "async per-round collect deadline (0 = wait for K or exhaustion)")
	codecName := fs.String("codec", "", "parameter-payload codec: raw (default), delta (lossless), float32, quant, q8, q4")
	quantBits := fs.Int("quant-bits", 0, "quantization width with -codec quant (8 or 4; 0 = 8)")
	topK := fs.Float64("topk", 0, "keep only this fraction of delta entries per tensor (0 = off; needs a non-raw -codec)")
	list := fs.Bool("list", false, "list models and datasets, then exit")
	report := fs.Bool("report", false, "print a per-phase timing and comms report after the run")
	trace := fs.String("trace", "", "write machine-readable JSONL telemetry events and trace spans to this file")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. :6060) for live profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("models: ", fedomd.Models())
		fmt.Println("datasets:", fedomd.Datasets())
		return nil
	}

	// Telemetry sinks: an in-memory aggregator for -report and -debug-addr
	// (/metrics renders from it), a JSONL writer for -trace. With none
	// requested the runtime sees the zero-cost no-op recorder.
	var sinks []fedomd.Recorder
	var agg *fedomd.TelemetryAggregator
	if *report || *debugAddr != "" {
		agg = fedomd.NewTelemetryAggregator()
		sinks = append(sinks, agg)
	}
	var traceFile *fedomd.TraceWriter
	if *trace != "" {
		f, ferr := os.Create(*trace)
		if ferr != nil {
			return ferr
		}
		traceFile = fedomd.NewTraceWriter(f)
		sinks = append(sinks, traceFile)
		defer func() { // err is run's result: a failed Close fails a run that succeeded
			if cerr := traceFile.Close(); err == nil {
				err = cerr
			}
		}()
	}
	recorder := fedomd.MultiRecorder(sinks...)

	// The observability plane: build info for exposition, a Tracer over the
	// JSONL stream, and the health rule engine.
	codecLabel := *codecName
	if codecLabel == "" {
		codecLabel = "raw"
	}
	build := fedomd.CollectBuildInfo(codecLabel, *policy)
	tracer := fedomd.NewTracer(traceFile) // nil (inert) without -trace
	var health *fedomd.Health
	if *report || *trace != "" || *debugAddr != "" {
		health = fedomd.NewHealthMonitor(fedomd.HealthConfig{}, tracer, recorder)
	}

	runID := fedomd.NewRunID()
	if traceFile != nil {
		traceFile.WriteHeader(runID, map[string]string{
			"module":  build.Module,
			"version": build.Version,
			"go":      build.GoVersion,
			"model":   *model,
			"dataset": *ds,
			"codec":   codecLabel,
			"policy":  *policy,
		})
	}

	if *debugAddr != "" {
		srv, err := fedomd.StartHTTPServer(*debugAddr, debugHandler(agg, &build))
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		fmt.Printf("debug server on %s (/debug/pprof, /debug/vars, /metrics)\n", srv.Addr())
		// Drain the listener at exit, and on SIGINT before dying, so
		// in-flight scrapes finish and the port releases immediately.
		shutdown := func() {
			if err := srv.ShutdownTimeout(3 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "fedomd: debug server shutdown:", err)
			}
		}
		defer shutdown()
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt)
		defer close(sigc) // after Stop, which guarantees no further sends
		defer signal.Stop(sigc)
		go func() {
			if _, ok := <-sigc; ok {
				shutdown()
				os.Exit(130)
			}
		}()
	}

	g, err := fedomd.GenerateDataset(*ds, *divisor, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %s\n", *ds, g.Summary())

	res := *resolution
	if res == 0 {
		res = 1.0
		if *ds == "computer" || *ds == "photo" {
			res = 20
		}
	}
	partiesList, err := fedomd.Partition(g, *parties, res, *seed+1)
	if err != nil {
		return err
	}
	fmt.Printf("partitioned into %d parties (non-iid score %.3f)\n",
		len(partiesList), fedomd.NonIIDScore(partiesList, g.NumClasses))

	failPolicy, err := fedomd.ParseFailurePolicy(*policy)
	if err != nil {
		return err
	}
	opts := fedomd.RunOptions{
		Rounds:          *rounds,
		Patience:        *patience,
		Recorder:        recorder,
		Policy:          failPolicy,
		ClientTimeout:   *clientTimeout,
		MinClients:      *minClients,
		MaxStrikes:      *maxStrikes,
		CooldownRounds:  *cooldown,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		ResumePath:      *resume,
		Codec:           *codecName,
		QuantBits:       *quantBits,
		TopK:            *topK,
		Aggregation:     *aggregation,
		BufferK:         *bufferK,
		MaxStaleness:    *maxStaleness,
		StalenessAlpha:  *stalenessAlpha,
		BufferTimeout:   *bufferTimeout,
		Tracer:          tracer,
		RunID:           runID,
		// Dataset identity rides into the checkpoint header so a serving
		// process can regenerate the graph the snapshot's node IDs index.
		Spec: &fedomd.ModelSpec{Dataset: *ds, Divisor: *divisor, DataSeed: *seed},
	}
	if health != nil {
		opts.Observer = health
	}
	if *codecName != "" {
		fmt.Printf("codec: %s\n", *codecName)
	}
	if *skipQuorum {
		opts.QuorumPolicy = fedomd.QuorumSkip
	}
	if *aggregation != "" {
		fmt.Printf("aggregation: %s\n", *aggregation)
	}
	if *chaosOn {
		opts.Chaos = &fedomd.ChaosOptions{
			Seed:          *chaosSeed,
			ErrRate:       *chaosErrRate,
			CrashFraction: *chaosCrashFrac,
			CrashAtRound:  *chaosCrashRound,
			NaNRate:       *chaosNaNRate,
			Latency:       *chaosLatency,
			SlowFraction:  *chaosSlowFrac,
			SlowLatency:   *chaosSlowLatency,
		}
		fmt.Printf("chaos on: seed=%d err-rate=%g crash=%g%%@round%d nan-rate=%g latency=%v\n",
			*chaosSeed, *chaosErrRate, 100**chaosCrashFrac, *chaosCrashRound, *chaosNaNRate, *chaosLatency)
	}
	var result *fedomd.Result
	if *model == fedomd.FedOMD {
		cfg := fedomd.DefaultConfig()
		cfg.Hidden = *hidden
		cfg.HiddenLayers = *layers
		cfg.Alpha = *alpha
		cfg.Beta = *beta
		if *dpEps > 0 {
			dp := fedomd.DPConfig{Epsilon: *dpEps, Delta: *dpDelta, Clip: *dpClip}
			fmt.Printf("differential privacy on statistic uploads: ε=%g δ=%g clip=%g (σ=%.3f)\n",
				dp.Epsilon, dp.Delta, dp.Clip, dp.NoiseSigma())
			result, err = fedomd.TrainFedOMDPrivate(partiesList, cfg, dp, opts, *seed+2)
		} else {
			result, err = fedomd.TrainFedOMD(partiesList, cfg, opts, *seed+2)
		}
	} else {
		result, err = fedomd.TrainBaseline(*model, partiesList, opts, *seed+2)
	}
	if err != nil {
		return err
	}

	step := len(result.History) / 10
	if step == 0 {
		step = 1
	}
	fmt.Println("\nround  trainLoss  valAcc  testAcc")
	for i := 0; i < len(result.History); i += step {
		h := result.History[i]
		fmt.Printf("%5d  %9.4f  %6.3f  %7.3f\n", h.Round, h.TrainLoss, h.ValAcc, h.TestAcc)
	}
	fmt.Printf("\nbest val %.4f at round %d; test@best %.4f\n",
		result.BestValAcc, result.BestRound, result.TestAtBestVal)
	fmt.Printf("traffic: %d bytes up, %d bytes down over %d rounds\n",
		result.TotalBytesUp, result.TotalBytesDown, len(result.History))

	if len(result.ClientFailures) > 0 {
		degraded := 0
		for _, h := range result.History {
			if h.Degraded {
				degraded++
			}
		}
		names := make([]string, 0, len(result.ClientFailures))
		for name := range result.ClientFailures {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("\nfailures tolerated (%d degraded rounds):\n", degraded)
		for _, name := range names {
			fmt.Printf("  %-12s %d\n", name, result.ClientFailures[name])
		}
	}

	if health != nil {
		if events := health.Events(); len(events) > 0 {
			fmt.Printf("\nhealth events (%d):\n", len(events))
			for _, e := range events {
				fmt.Printf("  %s\n", e)
			}
		}
	}

	if tracer != nil {
		spans, events := tracer.Counts()
		fmt.Printf("\nrun %s traced: %d spans, %d events\n", result.RunID, spans, events)
		fmt.Printf("trace written to %s\n", *trace)
	}
	if *report {
		fmt.Println("\ntelemetry report")
		fmt.Println(build.String())
		agg.Report(os.Stdout)
	}
	return nil
}

// Command fedomdserve serves node-classification queries from a trained
// FedOMD checkpoint over HTTP: it rebuilds the paper's OrthoGCN from the
// checkpoint's config header, folds the graph into a hot propagated-feature
// table, and answers through the micro-batching service of internal/serve.
// A new checkpoint landing on the watched path hot-swaps the model with zero
// dropped requests. A checkpoint written before the header existed is
// served as FedOMD, shaped by -hidden and -layers.
//
// Usage:
//
//	fedomd -dataset cora -checkpoint run.ckpt -checkpoint-every 10  # training side
//	fedomdserve -checkpoint run.ckpt -serve-addr :8090              # serving side
//
//	curl -s localhost:8090/v1/classify -d '{"nodes":[0,1,2],"logits":true}'
//	curl -s localhost:8090/healthz
//	curl -s localhost:8090/metrics     # Prometheus exposition, serve/* series
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"fedomd"
	"fedomd/internal/fed"
	"fedomd/internal/serve"
)

func main() {
	ckPath := flag.String("checkpoint", "", "checkpoint file to serve (required)")
	addr := flag.String("serve-addr", ":8090", "HTTP listen address")
	maxBatch := flag.Int("max-batch", 64, "max nodes coalesced per forward batch (1 = unbatched)")
	linger := flag.Duration("linger", time.Millisecond, "batch formation wait after the first request")
	cacheSize := flag.Int("cache", 4096, "logit LRU capacity in rows (0 = off)")
	watch := flag.Duration("watch", 500*time.Millisecond, "checkpoint poll interval for hot swap (0 = load once)")
	ds := flag.String("dataset", "", "dataset preset override (default: the checkpoint header's)")
	divisor := flag.Int("divisor", 0, "dataset shrink divisor override")
	seed := flag.Int64("seed", 0, "dataset seed override")
	hidden := flag.Int("hidden", 64, "hidden width fallback for pre-header checkpoints")
	layers := flag.Int("layers", 2, "hidden layers fallback for pre-header checkpoints")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fedomdserve:", err)
		os.Exit(1)
	}
	if *ckPath == "" {
		fail(fmt.Errorf("-checkpoint is required"))
	}
	ck, err := fed.LoadCheckpointFile(*ckPath)
	if err != nil {
		fail(err)
	}

	// Dataset identity: explicit flags beat the checkpoint header, which
	// beats nothing (a pre-header checkpoint must be told its dataset).
	name, div, dseed := *ds, *divisor, *seed
	if spec := ck.Spec; spec != nil {
		if name == "" {
			name = spec.Dataset
		}
		if div == 0 {
			div = spec.Divisor
		}
		if dseed == 0 {
			dseed = spec.DataSeed
		}
	}
	if name == "" {
		fail(fmt.Errorf("checkpoint has no dataset header; pass -dataset"))
	}
	if div == 0 {
		div = 8
	}
	if dseed == 0 {
		dseed = 1
	}
	g, err := fedomd.GenerateDataset(name, div, dseed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset %s: %s\n", name, g.Summary())

	spec := ck.Spec
	if spec == nil {
		// Pre-header snapshot: reconstruct the architecture from flags.
		spec = &fed.ModelSpec{
			SpecVersion: fed.SpecVersion, Model: "fedomd",
			Features: g.NumFeatures(), Classes: g.NumClasses,
			Hidden: *hidden, HiddenLayers: *layers, SpectralBound: true,
		}
		fmt.Printf("pre-header checkpoint: assuming fedomd hidden=%d layers=%d\n", *hidden, *layers)
	}

	agg := fedomd.NewTelemetryAggregator()
	svc := serve.New(serve.Config{
		MaxBatch:  *maxBatch,
		Linger:    *linger,
		CacheSize: *cacheSize,
		Recorder:  agg,
	})
	params, err := ck.GlobalParams()
	if err != nil {
		fail(err)
	}
	inf, err := serve.BuildInferencer(spec, params, g)
	if err != nil {
		fail(err)
	}
	svc.Swap(inf, ck.Round)
	fmt.Printf("serving %s model from round %d (%d nodes, %d classes, table dim %d)\n",
		spec.Model, ck.Round, inf.Nodes(), inf.Classes(), inf.TableDim())

	var watcher *serve.Watcher
	if *watch > 0 {
		watcher = serve.WatchCheckpoint(svc, *ckPath, *watch, g, func(err error) {
			fmt.Fprintln(os.Stderr, "fedomdserve: swap:", err)
		})
		fmt.Printf("watching %s every %v for hot swap\n", *ckPath, *watch)
	}

	build := fedomd.CollectBuildInfo("raw", "serve")
	mux := http.NewServeMux()
	mux.Handle("/", serve.Handler(svc))
	mux.Handle("/metrics", fedomd.MetricsHandler(agg, &build))
	srv, err := fedomd.StartHTTPServer(*addr, mux)
	if err != nil {
		fail(err)
	}
	fmt.Printf("serving on http://%s (/v1/classify, /healthz, /metrics)\n", srv.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	<-sigc
	fmt.Println("\nshutting down")
	if watcher != nil {
		watcher.Stop()
	}
	if err := srv.ShutdownTimeout(5 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "fedomdserve: shutdown:", err)
	}
	svc.Close()
}

// Package serve is the model-serving plane: it holds a trained model as an
// immutable nn.Inferencer snapshot, answers node-classification queries over
// a micro-batching request path, reuses repeated-node logits through a
// sharded LRU, and hot-swaps to a new checkpoint with an RCU pointer swap —
// in-flight batches finish on the model they started with and no request is
// ever dropped. See DESIGN.md §15.
package serve

// Telemetry keys follow the pkg/snake_case convention and are checked by
// fedomdvet's telemetrykey analyzer at every call site; keep them
// compile-time constants.
const (
	// MetricRequests counts classify requests accepted into the queue.
	MetricRequests = "serve/requests"
	// MetricErrors counts requests that finished with an error (bad node
	// IDs, no model loaded, queue overload).
	MetricErrors = "serve/errors"
	// MetricOverload counts requests rejected because the queue was full —
	// a subset of MetricErrors worth its own alarm.
	MetricOverload = "serve/overload"
	// MetricBatches counts executed forward batches; requests ÷ batches is
	// the realised coalescing factor.
	MetricBatches = "serve/batches"
	// MetricBatchSize is the per-batch node-count histogram.
	MetricBatchSize = "serve/batch_size"
	// MetricRequestSeconds is the per-request latency histogram, measured
	// from queue admission to completion (includes linger).
	MetricRequestSeconds = "serve/request_seconds"
	// SpanBatch times each batch's forward pass; its histogram is
	// serve/batch_seconds (see obs.Spans).
	SpanBatch = "serve/batch"
	// MetricCacheHits / MetricCacheMisses measure the logit LRU.
	MetricCacheHits   = "serve/cache_hits"
	MetricCacheMisses = "serve/cache_misses"
	// MetricSwaps counts model hot-swaps; MetricSwapErrors counts
	// checkpoint loads that failed (the old model keeps serving).
	MetricSwaps      = "serve/swaps"
	MetricSwapErrors = "serve/swap_errors"
	// MetricQueueDepth gauges the request-queue backlog at batch formation.
	MetricQueueDepth = "serve/queue_depth"
)

// Serve health rule names (healthz events; same level taxonomy as obs).
const (
	RuleNoModel   = "no_model"
	RuleErrorRate = "error_rate"
	RuleQueueFull = "queue_full"
)

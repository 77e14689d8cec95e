// Package telemetrykey exercises the telemetrykey analyzer: metric names
// handed to internal/telemetry must be pkg/snake_case compile-time
// constants, and trace span names / attribute keys handed to internal/obs
// likewise (attribute keys are single-segment).
package telemetrykey

import (
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

const spanKey = "fixture/phase_seconds"

func record(r telemetry.Recorder, dyn string) {
	r.Count("fixture/rounds_total", 1)
	r.Count(spanKey, 1)
	// The fault-tolerance counters the federated runtime emits; all legal.
	r.Count("fed/client_dropped", 1)
	r.Count("fed/client_quarantined", 1)
	r.Count("fed/round_degraded", 1)
	r.Count("rpc/coord/retries", 1)
	// The wire-codec counters (uplink pair, downlink pair, CPU cost).
	r.Count("codec/bytes_raw", 1)
	r.Count("codec/bytes_encoded", 1)
	r.Count("codec/bytes_raw_down", 1)
	r.Count("codec/bytes_encoded_down", 1)
	r.Count("codec/encode_ns", 1)
	r.Count("codec/decode_ns", 1)
	// The buffered async-aggregation counters and histograms; all legal.
	r.Count("fed/async_dispatched", 1)
	r.Count("fed/async_folded", 1)
	r.Count("fed/async_carried", 1)
	r.Count("fed/async_evicted", 1)
	r.Count("fed/async_rejected", 1)
	r.Count("fed/async_stalls", 1)
	r.Observe("fed/async_staleness", 2)
	r.Observe("fed/async_buffer_wait_seconds", 0.01)
	// The serving-plane counters and histograms (micro-batcher); all legal.
	r.Count("serve/requests", 1)
	r.Count("serve/errors", 1)
	r.Count("serve/overload", 1)
	r.Count("serve/batches", 1)
	r.Observe("serve/batch_size", 16)
	r.Observe("serve/request_seconds", 0.001)
	r.Count("serve/cache_hits", 3)
	r.Count("serve/cache_misses", 1)
	r.Count("serve/swaps", 1)
	r.Count("serve/swap_errors", 1)
	r.Count("fixture/sub/"+"leaf_total", 1) // constant folding keeps this checkable
	r.Count(dyn, 1)                         // want `telemetry key passed to Count must be a compile-time constant`
	r.Gauge("BadName", 1)                   // want `telemetry key "BadName" must match pkg/snake_case`
	r.Observe("no_slash", 0.5)              // want `telemetry key "no_slash" must match pkg/snake_case`
	telemetry.NewCounter("fixture/ops_total").Add(1)
}

const traceSpanKey = "fixture/phase"

func traced(tr *obs.Tracer, spans obs.Spans, dyn string) {
	// The observability plane's span and health-event names; all legal.
	root := spans.Start(obs.SpanContext{}, "fed/run")
	sp := spans.Start(root.Context(), traceSpanKey)
	sp.SetAttr("party", 3)
	sp.SetAttr(obs.AttrRound, 1)
	tr.Event(root.Context(), "obs/health", "warn", obs.KV("rule", "non_finite"))
	// The async engine's dispatch-job and fold spans with their attributes.
	job := spans.Start(root.Context(), "fed/async/job")
	job.SetAttr(obs.AttrDispatch, 4)
	job.End()
	fold := spans.Start(root.Context(), "fed/phase/aggregate")
	fold.SetAttr(obs.AttrBufferFill, 3)
	fold.SetAttr(obs.AttrBufferTarget, 4)
	fold.SetAttr(obs.AttrStalenessP99, 2)
	fold.End()
	// A per-op span: the op is a value, so it may be dynamic; the name,
	// which keys the latency histogram, may not.
	rpc := spans.Start(root.Context(), "rpc/coord/latency")
	rpc.SetOp(dyn)
	rpc.End()
	spans.Start(root.Context(), "fixture/"+dyn).End()                           // want `trace span name passed to Start must be a compile-time constant`
	tr.Event(root.Context(), "chaos/fault", "warn", obs.KV(obs.AttrParty, dyn)) // attr values may be dynamic
	spans.Start(root.Context(), dyn).End()                                      // want `trace span name passed to Start must be a compile-time constant`
	spans.Start(obs.SpanContext{}, "run").End()                                 // want `trace span name "run" must match pkg/snake_case`
	tr.Event(root.Context(), "obs/"+dyn, "warn")                                // want `trace span name passed to Event must be a compile-time constant`
	sp.SetAttr(dyn, 1)                                                          // want `span attribute key passed to SetAttr must be a compile-time constant`
	sp.SetAttr("bytes/raw", 1)                                                  // want `span attribute key "bytes/raw" must match single-segment snake_case`
	_ = obs.KV("CamelCase", 1)                                                  // want `span attribute key "CamelCase" must match single-segment snake_case`
	sp.End()
	root.End()
}

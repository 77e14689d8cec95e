package obs

// Span and event names follow the telemetry pkg/snake_case key convention
// and are checked by fedomdvet's telemetrykey analyzer at every call site;
// keep them compile-time constants. A span started through Spans also names
// its latency histogram: the span name plus "_seconds" (see Spans).
const (
	// SpanRun is the root span for one federated run.
	SpanRun = "fed/run"
	// SpanRound is the coordinator's per-round span; it becomes the active
	// context that transport and codec spans parent under.
	SpanRound = "fed/round"
	// SpanClientTrain covers one party's local training step as observed
	// from the coordinator (includes transport time).
	SpanClientTrain = "fed/client/train"
	// SpanClientUpload covers one party's parameter upload and decode.
	SpanClientUpload = "fed/client/upload"
	// SpanTrain covers the whole concurrent local-training phase.
	SpanTrain = "fed/phase/train"
	// SpanBroadcast covers pushing global parameters to all parties.
	SpanBroadcast = "fed/phase/broadcast"
	// SpanAggregate covers the coordinator-side merge: the sync FedAvg, or
	// the async engine's staleness-discounted buffer fold.
	SpanAggregate = "fed/phase/aggregate"
	// SpanAux covers the auxiliary-state exchange (SCAFFOLD's control
	// variates).
	SpanAux = "fed/phase/aux"
	// SpanMoments covers the 2-round center-moment exchange.
	SpanMoments = "fed/phase/moments"
	// SpanEval covers the coordinator-side evaluation pass.
	SpanEval = "fed/phase/eval"
	// SpanFinalEval covers the install and score of the last aggregate,
	// after the round loop.
	SpanFinalEval = "fed/phase/final_eval"
	// SpanRPC is a coordinator-side remote call (one op to one party); its
	// op (Span.SetOp) suffixes the latency histogram key.
	SpanRPC = "rpc/coord/latency"
	// SpanPartyHandle is a party-side request handling span; the op rides
	// on SetOp so the name stays a checkable constant.
	SpanPartyHandle = "rpc/party/handle"
	// SpanEncode and SpanDecode bracket wire-codec work.
	SpanEncode = "codec/encode"
	SpanDecode = "codec/decode"
	// SpanAsyncJob covers one dispatched party job in the buffered async
	// engine, from broadcast through upload, on the worker goroutine.
	SpanAsyncJob = "fed/async/job"
	// SpanBufferWait covers an async round's wait for its buffer to fill.
	SpanBufferWait = "fed/async_buffer_wait"

	// MetricHealthEvent is the trace-event name for fired health rules.
	MetricHealthEvent = "obs/health"
	// MetricHealthWarn / MetricHealthCritical count fired rules by level in
	// the telemetry aggregate, so health shows up in -report and /metrics.
	MetricHealthWarn     = "obs/health_warn"
	MetricHealthCritical = "obs/health_critical"
	// MetricChaosFault is the trace-event name for injected chaos faults.
	MetricChaosFault = "chaos/fault"
)

// Trace attribute keys: single snake_case segments, also analyzer-checked.
const (
	AttrRunID     = "run_id"
	AttrRound     = "round"
	AttrParty     = "party"
	AttrOp        = "op"
	AttrRule      = "rule"
	AttrMessage   = "message"
	AttrValue     = "value"
	AttrThreshold = "threshold"
	AttrTier      = "tier"
	AttrBytesEnc  = "bytes_encoded"
	AttrTensors   = "tensors"
	AttrKind      = "kind"
	AttrDelaySec  = "delay_seconds"
	AttrErr       = "err"
	AttrPolicy    = "policy"
	AttrCodec     = "codec"
	AttrRounds    = "rounds"
	AttrParties   = "parties"
	// Async buffered-aggregation attributes.
	AttrAggregation  = "aggregation"
	AttrDispatch     = "dispatch_round"
	AttrBufferFill   = "buffer_fill"
	AttrBufferTarget = "buffer_target"
	AttrStalenessP99 = "staleness_p99"
)

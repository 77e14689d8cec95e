package obs

// Span and event names follow the telemetry pkg/snake_case key convention
// and are checked by fedomdvet's telemetrykey analyzer at every call site;
// keep them compile-time constants.
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
	// SpanAggregate covers the coordinator-side FedAvg merge.
	SpanAggregate = "fed/phase/aggregate"
	// SpanMoments covers the 2-round center-moment exchange.
	SpanMoments = "fed/phase/moments"
	// SpanEval covers the coordinator-side evaluation pass.
	SpanEval = "fed/phase/eval"
	// SpanRPC is a coordinator-side remote call (one op to one party).
	SpanRPC = "rpc/coord/call"
	// SpanPartyHandle is a party-side request handling span; the op is an
	// attribute so the name stays a checkable constant.
	SpanPartyHandle = "rpc/party/handle"
	// SpanEncode and SpanDecode bracket wire-codec work.
	SpanEncode = "codec/encode"
	SpanDecode = "codec/decode"
	// SpanAsyncJob covers one dispatched party job in the buffered async
	// engine, from broadcast through upload, on the worker goroutine.
	SpanAsyncJob = "fed/async/job"
	// SpanFold covers the coordinator-side staleness-discounted buffer fold
	// (the async counterpart of fed/phase/aggregate).
	SpanFold = "fed/phase/fold"

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

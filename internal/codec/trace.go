package codec

import (
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// SetTrace arms the encoder with a tracer: every EncodeParams call then
// emits a trace-only "codec/encode" span (codec/encode_ns prices the work)
// parented at parent() (typically the tracer's active round/handle
// context). A nil tracer disarms tracing; both the tracer and parent are
// consulted per call so the hook costs nothing when tracing is off.
func (e *Encoder) SetTrace(tr *obs.Tracer, parent func() obs.SpanContext) {
	e.tracer = tr
	e.parent = parent
}

// traceParent resolves the configured parent context, tolerating a nil
// callback.
func (e *Encoder) traceParent() obs.SpanContext {
	if e.parent == nil {
		return obs.SpanContext{}
	}
	return e.parent()
}

// DecodeParamsTraced decodes blob against ref, whose checksum was taken
// when it became a reference (see Ref), wrapped in a "codec/decode" span
// when tr is non-nil; parent may be nil (the span then roots a local trace).
// It also reports whether blob was absolute, encoded against no reference:
// such a blob starts a new reference chain. The span is trace-only: the
// codec/decode_ns counter already prices the work, so it books no
// histogram.
func DecodeParamsTraced(blob []byte, ref Ref, tr *obs.Tracer, parent obs.SpanContext) (*nn.Params, bool, error) {
	if tr == nil {
		p, err := decodeRef(blob, ref)
		return p, err == nil && blobRefSum(blob) == 0, err
	}
	sp := obs.NewSpans(nil, tr).Start(parent, obs.SpanDecode)
	p, err := decodeRef(blob, ref)
	sp.SetAttr(obs.AttrBytesEnc, len(blob))
	if err != nil {
		sp.Fail(err)
		return p, false, err
	}
	sp.SetAttr(obs.AttrTensors, p.Len())
	sp.End()
	return p, blobRefSum(blob) == 0, nil
}

package codec

import (
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// SetTrace arms the encoder with a tracer: every EncodeParams call then
// emits a "codec/encode" span parented at parent() (typically the tracer's
// active round/handle context). A nil tracer disarms tracing; both the
// tracer and parent are consulted per call so the hook costs nothing when
// tracing is off.
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
func DecodeParamsTraced(blob []byte, ref Ref, tr *obs.Tracer, parent obs.SpanContext) (*nn.Params, error) {
	if tr == nil {
		return decodeRef(blob, ref)
	}
	sp := tr.Start(parent, obs.SpanDecode)
	p, err := decodeRef(blob, ref)
	sp.SetAttr(obs.AttrBytesEnc, len(blob))
	if p != nil {
		sp.SetAttr(obs.AttrTensors, p.Len())
	}
	if err != nil {
		sp.SetAttr(obs.AttrErr, err.Error())
	}
	sp.End()
	return p, err
}

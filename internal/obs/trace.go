// Package obs is the federation observability plane, layered on top of
// internal/telemetry: distributed tracing (a stdlib-only span model whose
// context propagates through the gob transport so party-side work links
// causally to the coordinator's round), Prometheus text-format exposition of
// the telemetry Aggregator, and a run-health rule engine watching per-round
// statistics.
//
// Everything is nil-tolerant: a nil *Tracer (or nil *Span) is inert, and a
// span with telemetry and tracing both off costs no clock read — the same
// contract telemetry.Nop gives metric call sites.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/telemetry"
)

// TraceID identifies one causally-linked trace (normally one federated run).
// Zero means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// String renders the ID as fixed-width hex — the wire/JSON spelling.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as fixed-width hex — the wire/JSON spelling.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// SpanContext is the propagated part of a span: enough to parent remote
// children. The zero value is "no context" and parents nothing.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Attr is one key/value annotation on a span or event. Keys must be
// compile-time snake_case constants (enforced by fedomdvet's telemetrykey
// analyzer) so trace tooling can index on exact strings; values are free.
type Attr struct {
	Key   string
	Value any
}

// KV builds one attribute. It exists (rather than a bare struct literal) so
// the analyzer has a call site to check the key at.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is the JSONL form of a finished span.
type SpanRecord struct {
	TS     string         `json:"ts"` // end time, wall clock
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent,omitempty"`
	Start  string         `json:"start"` // wall clock, RFC3339Nano
	DurNs  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// EventRecord is the JSONL form of an instantaneous annotation (a chaos
// fault, a health rule firing) attached to a parent span.
type EventRecord struct {
	TS     string         `json:"ts"`
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	Level  string         `json:"level,omitempty"`
	Trace  string         `json:"trace"`
	Parent string         `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// SpanSink receives finished spans and events as self-describing records.
// telemetry.JSONL satisfies it, so traces and metric events share one
// line stream.
type SpanSink interface{ EmitRecord(v any) }

// Tracer hands out spans and writes the finished ones to a sink. Safe for
// concurrent use. The zero of *Tracer (nil) is inert.
type Tracer struct {
	sink SpanSink
	next atomic.Uint64 // span-ID sequence, randomly seeded per process

	// active holds the coordinator's current round span — the propagation
	// seam for layers (transport proxies, codec encoders) that cannot be
	// threaded a parent explicitly. Guarded by mu; reads are frequent but
	// round-grained, so a mutex is fine.
	mu     sync.Mutex
	cur    SpanContext
	spans  atomic.Int64 // finished spans, for the report counter
	events atomic.Int64
}

// NewTracer returns a Tracer emitting to sink; a nil sink yields a nil
// (inert) Tracer. Span IDs start at a cryptographically random point so IDs
// minted by separate processes of one federation do not collide.
func NewTracer(sink SpanSink) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{sink: sink}
	t.next.Store(randomID())
	return t
}

// randomID draws a nonzero 64-bit ID seed from crypto/rand, falling back to
// the clock if the system source fails.
func randomID() uint64 {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	v := binary.LittleEndian.Uint64(buf[:])
	if v == 0 {
		v = 1
	}
	return v
}

// NewRunID returns a fresh 16-hex-digit run identifier for trace headers and
// Result correlation.
func NewRunID() string { return fmt.Sprintf("%016x", randomID()) }

// nextID mints a process-unique nonzero span ID. The increment is odd, so
// the sequence walks the full 2^64 ring regardless of seed.
func (t *Tracer) nextID() uint64 {
	id := t.next.Add(0x9E3779B97F4A7C15 | 1)
	if id == 0 {
		id = t.next.Add(0x9E3779B97F4A7C15 | 1)
	}
	return id
}

// SetActive publishes ctx as the coordinator's current span. Layers that
// cannot be threaded a parent explicitly (transport calls, codec encoders)
// parent their spans at Active instead.
func (t *Tracer) SetActive(ctx SpanContext) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur = ctx
	t.mu.Unlock()
}

// Active returns the last context published by SetActive (zero when none).
func (t *Tracer) Active() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Event emits an instantaneous annotation under parent. Level is "info",
// "warn" or "critical"; name must be a pkg/snake_case constant.
func (t *Tracer) Event(parent SpanContext, name, level string, attrs ...Attr) {
	if t == nil {
		return
	}
	rec := EventRecord{
		TS:    time.Now().UTC().Format(time.RFC3339Nano),
		Type:  "event",
		Name:  name,
		Level: level,
		Trace: parent.Trace.String(),
	}
	if parent.Span != 0 {
		rec.Parent = parent.Span.String()
	}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	t.events.Add(1)
	t.sink.EmitRecord(rec)
}

// Counts returns how many spans and events the tracer has emitted.
func (t *Tracer) Counts() (spans, events int64) {
	if t == nil {
		return 0, 0
	}
	return t.spans.Load(), t.events.Load()
}

// Spans starts the runtime's timed regions over the telemetry recorder and
// the tracer a layer holds, so one Start opens one span that feeds both.
// End books the duration under the span name plus "_seconds", with "/" + op
// appended for a span given an op (SetOp), and emits the trace record:
// "fed/phase/train" books "fed/phase/train_seconds", and "rpc/coord/latency"
// with op train_local books "rpc/coord/latency_seconds/train_local". With a
// nil or disabled recorder and a nil tracer, Start returns a nil span
// without reading the clock.
type Spans struct {
	rec telemetry.Recorder // nil when disabled
	tr  *Tracer
}

// NewSpans returns the span starter over rec and tr; either may be nil.
func NewSpans(rec telemetry.Recorder, tr *Tracer) Spans {
	if rec != nil && !rec.Enabled() {
		rec = nil
	}
	return Spans{rec: rec, tr: tr}
}

// Start begins a span named name, a pkg/snake_case compile-time constant,
// under parent. A parent with no trace starts a fresh trace with the span as
// its root (so a party whose coordinator predates propagation still produces
// a well-formed local trace). The caller must End or Fail the span on every
// path; fedomdvet's telemetrykey and spanend analyzers check both rules.
func (s Spans) Start(parent SpanContext, name string) *Span {
	if s.tr == nil && s.rec == nil {
		return nil
	}
	sp := &Span{tracer: s.tr, rec: s.rec, name: name, start: time.Now()}
	if s.tr != nil {
		if parent.Trace == 0 {
			parent.Trace = TraceID(s.tr.nextID())
		}
		sp.ctx = SpanContext{Trace: parent.Trace, Span: SpanID(s.tr.nextID())}
		sp.parent = parent.Span
	}
	return sp
}

// Span is one in-flight timed region. A nil *Span is inert: every method is
// a no-op.
type Span struct {
	tracer *Tracer            // nil: no trace record
	rec    telemetry.Recorder // nil: no histogram sample
	name   string
	ctx    SpanContext
	parent SpanID
	start  time.Time

	mu    sync.Mutex
	op    string
	attrs map[string]any
	ended bool
}

// Context returns the span's propagable identity (zero for a nil or
// untraced span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr annotates the span's trace record. Key must be a snake_case
// compile-time constant (see KV); the last write per key wins.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetOp names the operation a per-op span times: the trace record carries it
// as the op attribute and the histogram key gains "/" + op. Ops come from a
// closed set (the RPC op names), so each op is one fixed series.
func (s *Span) SetOp(op string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.op = op
	s.mu.Unlock()
	s.SetAttr(AttrOp, op)
}

// End finishes the span: it observes the duration in the span's histogram
// and emits the trace record. Idempotent: a second End (or a Fail after
// End) is ignored, so defers compose with early explicit ends.
func (s *Span) End() { s.finish(true, nil) }

// Fail finishes the span as a failure: the trace record carries err under
// AttrErr, and no histogram sample is booked — a failed operation's duration
// (a timed-out call books the whole timeout) is not a latency observation.
func (s *Span) Fail(err error) { s.finish(false, err) }

func (s *Span) finish(ok bool, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if err != nil && s.tracer != nil {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 1)
		}
		s.attrs[AttrErr] = err.Error()
	}
	attrs, op := s.attrs, s.op
	s.mu.Unlock()

	end := time.Now()
	if ok && s.rec != nil {
		key := s.name + "_seconds"
		if op != "" {
			key += "/" + op
		}
		s.rec.Observe(key, end.Sub(s.start).Seconds())
	}
	if s.tracer == nil {
		return
	}
	rec := SpanRecord{
		TS:    end.UTC().Format(time.RFC3339Nano),
		Type:  "span",
		Name:  s.name,
		Trace: s.ctx.Trace.String(),
		Span:  s.ctx.Span.String(),
		Start: s.start.UTC().Format(time.RFC3339Nano),
		DurNs: end.Sub(s.start).Nanoseconds(),
		Attrs: attrs,
	}
	if s.parent != 0 {
		rec.Parent = s.parent.String()
	}
	s.tracer.spans.Add(1)
	s.tracer.sink.EmitRecord(rec)
}

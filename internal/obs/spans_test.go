package obs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fedomd/internal/telemetry"
)

// With telemetry and tracing both off, a span is free: Start returns a nil
// span without reading the clock, and nothing allocates.
func TestNopSpanZeroAlloc(t *testing.T) {
	for _, spans := range []Spans{{}, NewSpans(nil, nil), NewSpans(telemetry.Nop, nil)} {
		allocs := testing.AllocsPerRun(100, func() {
			sp := spans.Start(SpanContext{}, SpanRound)
			sp.SetOp("train_local")
			sp.SetAttr(AttrRound, 1)
			sp.End()
			sp = spans.Start(SpanContext{}, SpanRound)
			sp.Fail(errBoom)
			telemetry.Nop.Count("hot/count", 1)
		})
		if allocs != 0 {
			t.Fatalf("disabled instrumentation allocates %v per op", allocs)
		}
		if spans.Start(SpanContext{}, SpanRound) != nil {
			t.Fatal("disabled Start returned a span (and read the clock)")
		}
	}
}

var errBoom = errors.New("boom")

func TestSpanRecordsDuration(t *testing.T) {
	a := telemetry.NewAggregator()
	sp := NewSpans(a, nil).Start(SpanContext{}, SpanTrain)
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End() // a second End must not book a second sample
	s, ok := a.Histogram("fed/phase/train_seconds")
	if !ok || s.Count != 1 {
		t.Fatalf("span not recorded once: %+v", s)
	}
	if s.Sum <= 0 || s.Sum > 5 {
		t.Fatalf("span duration = %v seconds", s.Sum)
	}
}

func TestSpanFailDropsSample(t *testing.T) {
	a := telemetry.NewAggregator()
	sp := NewSpans(a, nil).Start(SpanContext{}, SpanTrain)
	sp.Fail(errBoom)
	sp.End() // End after Fail must be a no-op
	if s, ok := a.Histogram("fed/phase/train_seconds"); ok && s.Count != 0 {
		t.Fatalf("failed span recorded a sample: %+v", s)
	}
}

// One span feeds both sinks: the histogram key is name_seconds[/op], and the
// trace record carries the op, or the error of a failed span.
func TestSpanFeedsHistogramAndTrace(t *testing.T) {
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	a := telemetry.NewAggregator()
	spans := NewSpans(a, NewTracer(jl))

	ok := spans.Start(SpanContext{}, SpanRPC)
	ok.SetOp("train_local")
	ok.End()
	failed := spans.Start(ok.Context(), SpanRPC)
	failed.SetOp("train_local")
	failed.Fail(errBoom)
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}

	if s, _ := a.Histogram("rpc/coord/latency_seconds/train_local"); s.Count != 1 {
		t.Fatalf("per-op latency samples = %d, want the 1 span that ended", s.Count)
	}
	recs := decodeLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d trace records, want 2", len(recs))
	}
	for i, r := range recs {
		attrs, _ := r["attrs"].(map[string]any)
		if r["name"] != SpanRPC || attrs[AttrOp] != "train_local" {
			t.Fatalf("record %d = %v, want an %s span with op train_local", i, r, SpanRPC)
		}
		_, hasErr := attrs[AttrErr]
		if want := i == 1; hasErr != want {
			t.Fatalf("record %d err attribute present = %v, want %v", i, hasErr, want)
		}
	}
	if recs[1]["attrs"].(map[string]any)[AttrErr] != errBoom.Error() {
		t.Fatalf("failed span err = %v", recs[1]["attrs"])
	}
}

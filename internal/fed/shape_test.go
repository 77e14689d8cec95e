package fed

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"fedomd/internal/codec"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// runShape runs three rounds over three healthy full-capability parties
// (moments, aux) with the delta codec, a telemetry aggregator and a tracer,
// and returns the sorted metric keys the aggregator saw (prefixed by kind)
// and the sorted "span <- parent span" pairs of the trace.
func runShape(t *testing.T, agg AggregationMode) (keys, spans []string) {
	t.Helper()
	var mu sync.Mutex
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(lockedWriter{&mu, &buf})
	rec := telemetry.NewAggregator()
	fleet := []Client{newFaultySite("a", "", 1), newFaultySite("b", "", 2), newFaultySite("c", "", 3)}
	cfg := Config{
		Rounds:      3,
		Aggregation: agg,
		BufferK:     len(fleet),
		Recorder:    rec,
		Tracer:      obs.NewTracer(jl),
		Codec:       codec.Options{Kind: codec.Delta},
	}
	if _, err := Run(cfg, fleet); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	counters, gauges, hists := rec.Snapshot()
	for k := range counters {
		keys = append(keys, "counter "+k)
	}
	for k := range gauges {
		keys = append(keys, "gauge "+k)
	}
	for k := range hists {
		keys = append(keys, "hist "+k)
	}
	sort.Strings(keys)

	mu.Lock()
	recs := decodeTrace(t, bytes.NewBuffer(append([]byte(nil), buf.Bytes()...)))
	mu.Unlock()
	names := map[string]string{}
	for _, r := range recs {
		if r.Type == "span" {
			names[r.Span] = r.Name
		}
	}
	counts := map[string]int{}
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		parent := "-"
		if r.Parent != "" {
			parent = names[r.Parent]
		}
		counts[r.Name+" <- "+parent]++
	}
	for pair, n := range counts {
		spans = append(spans, fmt.Sprintf("%s x%d", pair, n))
	}
	sort.Strings(spans)
	return keys, spans
}

// TestTelemetryAndTraceShape pins, for both schedules, which metric keys a
// run reports and which span names parent which: the set a dashboard or a
// trace query is written against.
func TestTelemetryAndTraceShape(t *testing.T) {
	syncKeys := []string{
		"counter codec/bytes_encoded",
		"counter codec/bytes_encoded_down",
		"counter codec/bytes_raw",
		"counter codec/bytes_raw_down",
		"counter codec/decode_ns",
		"counter codec/encode_ns",
		"counter fed/active_clients",
		"counter fed/bytes_down",
		"counter fed/bytes_up",
		"counter fed/rounds",
		"gauge codec/ratio/delta",
		"gauge fed/test_acc",
		"gauge fed/val_acc",
		"hist fed/client/train_seconds",
		"hist fed/client/upload_seconds",
		"hist fed/phase/aggregate_seconds",
		"hist fed/phase/aux_seconds",
		"hist fed/phase/broadcast_seconds",
		"hist fed/phase/eval_seconds",
		"hist fed/phase/final_eval_seconds",
		"hist fed/phase/moments_seconds",
		"hist fed/phase/train_seconds",
		"hist fed/round_seconds",
		"hist fed/run_seconds",
	}
	syncSpans := []string{
		"codec/decode <- fed/round x18",
		"codec/decode <- fed/run x4",
		"codec/encode <- fed/round x12",
		"codec/encode <- fed/run x2",
		"fed/client/train <- fed/round x9",
		"fed/client/upload <- fed/round x9",
		"fed/phase/aggregate <- fed/round x3",
		"fed/phase/aux <- fed/round x3",
		"fed/phase/broadcast <- fed/round x3",
		"fed/phase/eval <- fed/round x3",
		"fed/phase/final_eval <- fed/run x1",
		"fed/phase/moments <- fed/round x3",
		"fed/phase/train <- fed/round x3",
		"fed/round <- fed/run x3",
		"fed/run <- - x1",
	}
	asyncKeys := []string{
		"counter codec/bytes_encoded",
		"counter codec/bytes_encoded_down",
		"counter codec/bytes_raw",
		"counter codec/bytes_raw_down",
		"counter codec/decode_ns",
		"counter codec/encode_ns",
		"counter fed/active_clients",
		"counter fed/async_dispatched",
		"counter fed/async_folded",
		"counter fed/bytes_down",
		"counter fed/bytes_up",
		"counter fed/rounds",
		"gauge codec/ratio/delta",
		"gauge fed/test_acc",
		"gauge fed/val_acc",
		"hist fed/async/job_seconds",
		"hist fed/async_buffer_wait_seconds",
		"hist fed/async_staleness",
		"hist fed/client/train_seconds",
		"hist fed/client/upload_seconds",
		"hist fed/phase/aggregate_seconds",
		"hist fed/phase/broadcast_seconds",
		"hist fed/phase/eval_seconds",
		"hist fed/phase/final_eval_seconds",
		"hist fed/phase/moments_seconds",
		"hist fed/round_seconds",
		"hist fed/run_seconds",
	}
	asyncSpans := []string{
		"codec/decode <- fed/round x30",
		"codec/decode <- fed/run x4",
		"codec/encode <- fed/round x15",
		"codec/encode <- fed/run x2",
		"fed/async/job <- fed/round x9",
		"fed/async_buffer_wait <- fed/round x3",
		"fed/client/train <- fed/async/job x9",
		"fed/client/upload <- fed/async/job x9",
		"fed/phase/aggregate <- fed/round x3",
		"fed/phase/broadcast <- fed/round x1",
		"fed/phase/eval <- fed/round x3",
		"fed/phase/final_eval <- fed/run x1",
		"fed/phase/moments <- fed/round x1",
		"fed/round <- fed/run x3",
		"fed/run <- - x1",
	}
	for _, tc := range []struct {
		agg         AggregationMode
		keys, spans []string
	}{
		{AggSync, syncKeys, syncSpans},
		{AggAsync, asyncKeys, asyncSpans},
	} {
		t.Run(tc.agg.String(), func(t *testing.T) {
			keys, spans := runShape(t, tc.agg)
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Errorf("metric keys:\n%s", quoteLines(keys))
			}
			if !reflect.DeepEqual(spans, tc.spans) {
				t.Errorf("span tree:\n%s", quoteLines(spans))
			}
		})
	}
}

// quoteLines renders got as Go string literals, one per line.
func quoteLines(got []string) string {
	var b strings.Builder
	for _, s := range got {
		fmt.Fprintf(&b, "\t\t%q,\n", s)
	}
	return b.String()
}

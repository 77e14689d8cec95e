package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"fedomd/internal/telemetry"
)

// decodeLines parses every JSONL line into a generic map, failing on any
// malformed line — the invariant the concurrent-writing test leans on.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestSpanParentLinks(t *testing.T) {
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	tr := NewTracer(jl)

	root := tr.Root(SpanRun)
	round := tr.Start(root.Context(), SpanRound)
	round.SetAttr(AttrRound, 3)
	train := tr.Start(round.Context(), SpanClientTrain)
	train.SetAttr(AttrParty, "party-0")
	train.End()
	round.End()
	root.End()
	tr.Event(round.Context(), MetricHealthEvent, LevelWarn, KV(AttrRule, RuleNonFinite))
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}

	recs := decodeLines(t, &buf)
	byName := map[string]map[string]any{}
	for _, r := range recs {
		byName[r["name"].(string)] = r
	}
	rootRec, roundRec, trainRec := byName[SpanRun], byName[SpanRound], byName[SpanClientTrain]
	if rootRec == nil || roundRec == nil || trainRec == nil {
		t.Fatalf("missing span records, got %v", byName)
	}
	// One trace, parent chain root <- round <- train.
	if rootRec["trace"] != roundRec["trace"] || roundRec["trace"] != trainRec["trace"] {
		t.Fatal("spans did not share a trace ID")
	}
	if rootRec["parent"] != nil {
		t.Fatalf("root span has parent %v", rootRec["parent"])
	}
	if roundRec["parent"] != rootRec["span"] {
		t.Fatalf("round parent = %v, want root span %v", roundRec["parent"], rootRec["span"])
	}
	if trainRec["parent"] != roundRec["span"] {
		t.Fatalf("train parent = %v, want round span %v", trainRec["parent"], roundRec["span"])
	}
	if trainRec["attrs"].(map[string]any)["party"] != "party-0" {
		t.Fatalf("train attrs = %v", trainRec["attrs"])
	}
	ev := byName[MetricHealthEvent]
	if ev == nil || ev["type"] != "event" || ev["parent"] != roundRec["span"] {
		t.Fatalf("health event not parented at the round span: %v", ev)
	}
	if spans, events := tr.Counts(); spans != 3 || events != 1 {
		t.Fatalf("Counts() = %d spans, %d events; want 3, 1", spans, events)
	}
}

// A nil Tracer — the disabled-observability path — must be completely inert:
// no panics, zero-value contexts, nil spans whose methods are no-ops.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	sp := tr.Root(SpanRun)
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr(AttrRound, 1) // no-op, must not panic
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Start(SpanContext{}, SpanRound) != nil {
		t.Fatal("nil tracer Start minted a span")
	}
	tr.SetActive(SpanContext{Trace: 1, Span: 2})
	if tr.Active().Valid() {
		t.Fatal("nil tracer retained an active context")
	}
	tr.Event(SpanContext{}, MetricChaosFault, LevelWarn)
	if s, e := tr.Counts(); s != 0 || e != 0 {
		t.Fatal("nil tracer counted emissions")
	}
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil sink) must return a nil tracer")
	}
}

// Satellite: concurrent trace writing through the shared JSONL sink. Many
// goroutines emit spans and events while telemetry records interleave on the
// same stream; every line must come out whole (no interleaved JSON).
func TestConcurrentTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	tr := NewTracer(jl)

	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start(tr.Active(), SpanClientTrain)
				sp.SetAttr(AttrParty, fmt.Sprintf("party-%d", w))
				sp.SetAttr(AttrRound, i)
				// Telemetry events share the sink with the spans.
				jl.Observe("fed/round_seconds", float64(i))
				tr.Event(sp.Context(), MetricChaosFault, LevelWarn, KV(AttrOp, "train_local"))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}

	recs := decodeLines(t, &buf)
	var spans, events, metrics int
	for _, r := range recs {
		switch r["type"] {
		case "span":
			spans++
		case "event":
			events++
		case "observe":
			metrics++
		}
	}
	want := workers * perWorker
	if spans != want || events != want || metrics != want {
		t.Fatalf("got %d spans, %d events, %d metric lines; want %d each", spans, events, metrics, want)
	}
	if s, e := tr.Counts(); s != int64(want) || e != int64(want) {
		t.Fatalf("tracer counts %d/%d, want %d/%d", s, e, want, want)
	}
}

func TestNewRunID(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("run IDs %q, %q are not 16 hex digits", a, b)
	}
	if a == b {
		t.Fatalf("consecutive run IDs collided: %q", a)
	}
}

// Span IDs minted concurrently must be unique — the ID sequence is the only
// thing keeping remote spans distinguishable in one merged trace file.
func TestSpanIDUniqueness(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(telemetry.NewJSONL(&buf))
	const n = 10_000
	ids := make(chan SpanID, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				ids <- tr.Start(SpanContext{}, SpanRPC).Context().Span
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[SpanID]bool, n)
	for id := range ids {
		if id == 0 {
			t.Fatal("zero span ID minted")
		}
		if seen[id] {
			t.Fatalf("span ID %v minted twice", id)
		}
		seen[id] = true
	}
}

// Enabled reports whether spans are consumed at all.
func (t *Tracer) Enabled() bool { return t != nil }

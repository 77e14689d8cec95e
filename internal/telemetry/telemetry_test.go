package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopIsDisabledAndInert(t *testing.T) {
	if Nop.Enabled() {
		t.Fatal("Nop reports enabled")
	}
	Nop.Count("x", 1)
	Nop.Gauge("x", 1)
	Nop.Observe("x", 1)
	if Or(nil) != Nop {
		t.Fatal("Or(nil) is not Nop")
	}
}

func TestAggregatorCountersGaugesHists(t *testing.T) {
	a := NewAggregator()
	a.Count("c", 2)
	a.Count("c", 3)
	if got := a.Counter("c"); got != 5 {
		t.Fatalf("counter = %d want 5", got)
	}
	a.Gauge("g", 1.5)
	a.Gauge("g", 2.5)
	if v, ok := a.GaugeValue("g"); !ok || v != 2.5 {
		t.Fatalf("gauge = %v,%v want 2.5", v, ok)
	}
	for i := 1; i <= 100; i++ {
		a.Observe("h", float64(i))
	}
	s, ok := a.Histogram("h")
	if !ok {
		t.Fatal("histogram missing")
	}
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-12 {
		t.Fatalf("mean = %v want 50.5", s.Mean)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P95 < 90 || s.P95 > 100 {
		t.Fatalf("p95 = %v", s.P95)
	}
}

func TestAggregatorReservoirBounded(t *testing.T) {
	a := NewAggregator()
	n := reservoirCap * 3
	for i := 0; i < n; i++ {
		a.Observe("h", float64(i))
	}
	a.mu.Lock()
	got := len(a.hists["h"].samples)
	a.mu.Unlock()
	if got != reservoirCap {
		t.Fatalf("reservoir holds %d samples want %d", got, reservoirCap)
	}
	s, _ := a.Histogram("h")
	if s.Count != int64(n) {
		t.Fatalf("count = %d want %d", s.Count, n)
	}
	// The reservoir subsamples uniformly: the median estimate must land in
	// the middle half of the observed range.
	if s.P50 < float64(n)/4 || s.P50 > 3*float64(n)/4 {
		t.Fatalf("p50 = %v out of plausible range for uniform 0..%d", s.P50, n)
	}
}

func TestAggregatorConcurrentUse(t *testing.T) {
	a := NewAggregator()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Count("c", 1)
				a.Observe("h", float64(i))
				a.Gauge("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := a.Counter("c"); got != 4000 {
		t.Fatalf("concurrent counter = %d want 4000", got)
	}
	if s, _ := a.Histogram("h"); s.Count != 4000 {
		t.Fatalf("concurrent histogram count = %d want 4000", s.Count)
	}
}

func TestReportRendersTables(t *testing.T) {
	a := NewAggregator()
	a.Observe("fed/phase/train_seconds", 0.25)
	a.Observe("fed/phase/train_seconds", 0.75)
	a.Count("fed/bytes_up", 1024)
	a.Gauge("fed/val_acc", 0.5)
	NewCounter("test/report_counter").Add(7)
	var buf bytes.Buffer
	a.Report(&buf)
	out := buf.String()
	for _, want := range []string{
		"fed/phase/train_seconds", "count", "p50", "p95",
		"fed/bytes_up", "1024",
		"fed/val_acc",
		"test/report_counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Durations render as times, not raw floats.
	if !strings.Contains(out, "ms") && !strings.Contains(out, "s ") && !strings.Contains(out, "s\n") {
		t.Fatalf("durations not formatted as times:\n%s", out)
	}
}

func TestJSONLEmitsParseableEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Count("c", 3)
	j.Gauge("g", 1.5)
	j.Observe("op_seconds", 0.25)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events want 3", len(events))
	}
	if events[0].Type != "count" || events[0].Name != "c" || events[0].Delta != 3 {
		t.Fatalf("count event = %+v", events[0])
	}
	if events[1].Type != "gauge" || events[1].Value != 1.5 {
		t.Fatalf("gauge event = %+v", events[1])
	}
	if events[2].Type != "observe" || events[2].Name != "op_seconds" {
		t.Fatalf("span event = %+v", events[2])
	}
	if _, err := time.Parse(time.RFC3339Nano, events[0].TS); err != nil {
		t.Fatalf("timestamp %q not RFC3339: %v", events[0].TS, err)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewAggregator(), NewAggregator()
	m := Multi(a, nil, Nop, b)
	m.Count("c", 2)
	m.Observe("h", 1)
	if a.Counter("c") != 2 || b.Counter("c") != 2 {
		t.Fatal("Multi did not fan out counters")
	}
	if Multi() != Nop {
		t.Fatal("empty Multi is not Nop")
	}
	if Multi(nil, Nop) != Nop {
		t.Fatal("Multi of disabled recorders is not Nop")
	}
	if Multi(a) != Recorder(a) {
		t.Fatal("single-recorder Multi added indirection")
	}
}

func TestGlobalCounters(t *testing.T) {
	c := NewCounter("test/global")
	before := c.Value()
	c.Add(5)
	if c.Value() != before+5 {
		t.Fatal("global counter add failed")
	}
	if NewCounter("test/global") != c {
		t.Fatal("duplicate registration returned a new counter")
	}
	snap := GlobalCounters()
	if snap["test/global"] != c.Value() {
		t.Fatalf("snapshot = %v want %d", snap["test/global"], c.Value())
	}
}

package fed

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// slowTrainer wraps a fakeClient with an artificial training delay — the
// in-process stand-in for a straggling party (package fed cannot import
// internal/chaos without a cycle).
type slowTrainer struct {
	*fakeClient
	delay time.Duration
}

func (s *slowTrainer) TrainLocal(round int) (float64, error) {
	time.Sleep(s.delay)
	return s.fakeClient.TrainLocal(round)
}

// spanRec is one decoded trace line (span or event); IDs are hex strings.
type spanRec struct {
	Type   string         `json:"type"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

func decodeTrace(t *testing.T, buf *bytes.Buffer) []spanRec {
	t.Helper()
	var out []spanRec
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r spanRec
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("malformed trace line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// hasAncestor walks parent links from id looking for a span named want.
func hasAncestor(byID map[string]spanRec, id string, want string) bool {
	for depth := 0; depth < 64; depth++ {
		r, ok := byID[id]
		if !ok {
			return false
		}
		if r.Name == want {
			return true
		}
		if r.Parent == "" {
			return false
		}
		id = r.Parent
	}
	return false
}

// TestDistributedTraceTree runs a full distributed round trip with one
// shared tracer on both ends of the wire and reconstructs the span tree:
// every party-side train handling span and every wire-codec encode span
// must carry a coordinator round span as an ancestor — the cross-process
// causal link the trace context in the request frame exists to provide.
func TestDistributedTraceTree(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(lockedWriter{&mu, &buf})
	tr := obs.NewTracer(jl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	a := newFakeClient("a", 3, 0)
	a.trainVal = 1
	b := newFakeClient("b", 1, 0)
	b.trainVal = 5
	locals := []Client{a, b}
	var wg sync.WaitGroup
	for _, c := range locals {
		wg.Add(1)
		go func(c Client) {
			defer wg.Done()
			if err := ServeClientOpts(ln.Addr().String(), c, ServeOptions{Tracer: tr}); err != nil {
				t.Errorf("serve %s: %v", c.Name(), err)
			}
		}(c)
	}
	cfg := Config{
		Rounds:     2,
		Sequential: true,
		Tracer:     tr,
		Codec:      codec.Options{Kind: codec.Delta},
	}
	res, err := RunDistributed(cfg, ln, len(locals))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	data := append([]byte(nil), buf.Bytes()...)
	mu.Unlock()
	recs := decodeTrace(t, bytes.NewBuffer(data))

	byID := map[string]spanRec{}
	var runSpans, roundSpans int
	var runTrace string
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		byID[r.Span] = r
		switch r.Name {
		case obs.SpanRun:
			runSpans++
			runTrace = r.Trace
		case obs.SpanRound:
			roundSpans++
		}
	}
	if runSpans != 1 {
		t.Fatalf("got %d fed/run spans, want exactly 1", runSpans)
	}
	if roundSpans != cfg.Rounds {
		t.Fatalf("got %d fed/round spans, want %d", roundSpans, cfg.Rounds)
	}
	if res.RunID == "" {
		t.Fatal("distributed result missing its run ID")
	}

	var trainHandles, roundEncodes int
	for _, r := range byID {
		isTrainHandle := r.Name == obs.SpanPartyHandle && r.Attrs["op"] == "train_local"
		if !isTrainHandle && r.Name != obs.SpanEncode {
			continue
		}
		// Everything anchors in the run's trace: the bootstrap parameter
		// fetch under fed/run, round-era work under a fed/round span.
		if r.Trace != runTrace {
			t.Errorf("%s span %s on trace %s, run trace is %s", r.Name, r.Span, r.Trace, runTrace)
		}
		if !hasAncestor(byID, r.Span, obs.SpanRun) {
			t.Errorf("%s span %s (attrs %v) has no fed/run ancestor", r.Name, r.Span, r.Attrs)
		}
		if isTrainHandle {
			trainHandles++
			if !hasAncestor(byID, r.Span, obs.SpanRound) {
				t.Errorf("train handling span %s has no fed/round ancestor", r.Span)
			}
		} else if hasAncestor(byID, r.Span, obs.SpanRound) {
			roundEncodes++
		}
	}
	// Two parties x two rounds: one train handling span each, and at least
	// as many round-anchored encode spans (party uploads ride the
	// negotiated wire codec).
	if want := len(locals) * cfg.Rounds; trainHandles != want {
		t.Fatalf("reconstructed %d train handling spans, want %d", trainHandles, want)
	}
	if roundEncodes < len(locals)*cfg.Rounds {
		t.Fatalf("reconstructed only %d round-anchored codec/encode spans", roundEncodes)
	}
}

// TestFinalBroadcastSpansUnderRun pins where the final-score broadcast's
// coordinator spans anchor, under both engines: it runs after the round
// loop, outside every round, so each party's set_params call and the codec
// encode of the final global must have fed/run itself as parent, not the
// last fed/round.
func TestFinalBroadcastSpansUnderRun(t *testing.T) {
	for _, agg := range []AggregationMode{AggSync, AggAsync} {
		t.Run(agg.String(), func(t *testing.T) {
			var mu sync.Mutex
			var buf bytes.Buffer
			jl := telemetry.NewJSONL(lockedWriter{&mu, &buf})
			locals := []Client{newFakeClient("a", 3, 0), newFakeClient("b", 1, 0)}
			cfg := Config{
				Rounds:      2,
				Sequential:  true,
				Aggregation: agg,
				Tracer:      obs.NewTracer(jl),
				Codec:       codec.Options{Kind: codec.Delta},
			}
			if _, err := startServer(t, cfg, locals); err != nil {
				t.Fatal(err)
			}
			if err := jl.Flush(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			recs := decodeTrace(t, bytes.NewBuffer(append([]byte(nil), buf.Bytes()...)))
			mu.Unlock()
			var runID string
			for _, r := range recs {
				if r.Type == "span" && r.Name == obs.SpanRun {
					runID = r.Span
				}
			}
			if runID == "" {
				t.Fatal("no fed/run span")
			}
			var sets, encodes int
			for _, r := range recs {
				if r.Type != "span" || r.Parent != runID {
					continue
				}
				switch {
				case r.Name == obs.SpanRPC && r.Attrs[obs.AttrOp] == "set_params":
					sets++
				case r.Name == obs.SpanEncode:
					encodes++
				}
			}
			if sets != len(locals) {
				t.Fatalf("%d set_params calls anchored directly under fed/run, want the final broadcast's %d", sets, len(locals))
			}
			if encodes == 0 {
				t.Fatal("the final broadcast's codec/encode span is not anchored directly under fed/run")
			}
		})
	}
}

// lockedWriter serialises buffer access between the party goroutines'
// flush-on-shutdown and the test's final read.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestHealthMonitorsFireDuringRun drives a run with one NaN-poisoned party
// and one straggler: the non-finite and straggler-skew monitors must both
// fire, with events retained for the final report AND emitted into the
// trace stream.
func TestHealthMonitorsFireDuringRun(t *testing.T) {
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	tr := obs.NewTracer(jl)
	health := obs.NewHealth(obs.HealthConfig{}, tr, nil)

	nan := newFakeClient("nan", 2, 0)
	nan.trainVal = math.NaN()
	slow := &slowTrainer{fakeClient: newFakeClient("slow", 2, 0), delay: 30 * time.Millisecond}
	slow.trainVal = 2
	clients := []Client{
		newFakeClient("a", 2, 0),
		newFakeClient("b", 2, 0),
		newFakeClient("c", 2, 0),
		nan,
		slow,
	}
	for _, c := range clients {
		if f, ok := c.(*fakeClient); ok && f.trainVal == 0 {
			f.trainVal = 1
		}
	}

	res, err := Run(Config{Rounds: 2, Policy: DropRound, Tracer: tr, Observer: health}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientFailures["nan"] == 0 {
		t.Fatal("NaN party never failed a round — screen did not trip")
	}

	fired := map[string]bool{}
	for _, ev := range health.Events() {
		fired[ev.Rule] = true
	}
	if !fired[obs.RuleNonFinite] {
		t.Errorf("non-finite monitor never fired: %v", health.Events())
	}
	if !fired[obs.RuleStragglerSkew] {
		t.Errorf("straggler-skew monitor never fired: %v", health.Events())
	}

	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.String()
	if !strings.Contains(stream, `"name":"`+obs.MetricHealthEvent+`"`) {
		t.Fatal("health events missing from the trace stream")
	}
	if !strings.Contains(stream, obs.RuleNonFinite) || !strings.Contains(stream, obs.RuleStragglerSkew) {
		t.Fatal("trace stream missing the fired rule names")
	}
}

// TestRunTimestampsAndID covers the wall-clock satellite: Result and every
// RoundStats carry ordered Start/End bounds, and the run ID is minted (or
// passed through) and 16 hex digits.
func TestRunTimestampsAndID(t *testing.T) {
	a := newFakeClient("a", 2, 0)
	a.trainVal = 1
	res, err := Run(Config{Rounds: 3, Sequential: true}, []Client{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RunID) != 16 {
		t.Fatalf("run ID %q is not 16 hex digits", res.RunID)
	}
	if res.Start.IsZero() || res.End.IsZero() || res.End.Before(res.Start) {
		t.Fatalf("run bounds not ordered: %v .. %v", res.Start, res.End)
	}
	if len(res.History) != 3 {
		t.Fatalf("got %d rounds", len(res.History))
	}
	for i, rs := range res.History {
		if rs.Start.IsZero() || rs.End.IsZero() || rs.End.Before(rs.Start) {
			t.Fatalf("round %d bounds not ordered: %v .. %v", i, rs.Start, rs.End)
		}
		if rs.Start.Before(res.Start) || rs.End.After(res.End) {
			t.Fatalf("round %d bounds escape the run bounds", i)
		}
	}

	b := newFakeClient("b", 2, 0)
	b.trainVal = 1
	res2, err := Run(Config{Rounds: 1, RunID: "cafef00dcafef00d"}, []Client{b})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RunID != "cafef00dcafef00d" {
		t.Fatalf("configured run ID not passed through: %q", res2.RunID)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fedomd"
	"fedomd/internal/fed"
)

// TestDebugHandler serves the -debug-addr surface on httptest and checks
// every endpoint it promises: expvar's /debug/vars carries the telemetry and
// build keys, /debug/pprof/ answers, and /metrics is a clean exposition.
func TestDebugHandler(t *testing.T) {
	agg := fedomd.NewTelemetryAggregator()
	agg.Count("fed/bytes_up", 4096)
	agg.Gauge("codec/ratio/q8", 6.5)
	for _, v := range []float64{0.01, 0.02, 0.4} {
		agg.Observe("fed/round_seconds", v)
	}
	build := fedomd.CollectBuildInfo("q8", "drop-round")
	srv := httptest.NewServer(debugHandler(agg, &build))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	for _, key := range []string{"fedomd.telemetry", "fedomd_build"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars lacks %q", key)
		}
	}

	get("/debug/pprof/")

	metrics := get("/metrics")
	if !bytes.Contains(metrics, []byte("fedomd_")) {
		t.Errorf("/metrics carries no fedomd series:\n%s", metrics)
	}
	if problems := fedomd.LintExposition(bytes.NewReader(metrics)); len(problems) > 0 {
		t.Errorf("/metrics exposition problems:\n%v\n%s", problems, metrics)
	}
}

// traceHasRunSpan parses every line of a JSONL trace file, failing on a line
// that is not whole JSON, and reports whether a fed/run span is among them.
func traceHasRunSpan(t *testing.T, path string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct{ Type, Name string }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line %d does not parse: %v\n%s", i+1, err, line)
		}
		found = found || (rec.Type == "span" && rec.Name == "fed/run")
	}
	return found
}

// TestRunSmoke drives the CLI in process twice: a baseline run with async
// aggregation, a chaos crash under quarantine, checkpoints and a trace, which
// must leave a fed/run span and a readable checkpoint; then a FedOMD run that
// a chaos crash fails under failfast, whose trace must still be whole.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	ckpt := filepath.Join(dir, "ck.gob")
	err := run([]string{"-model", "FedGCN", "-dataset", "cora", "-divisor", "12", "-rounds", "3",
		"-aggregation", "async", "-policy", "quarantine", "-chaos", "-chaos-crash-frac", "0.5",
		"-chaos-crash-round", "1", "-checkpoint", ckpt, "-checkpoint-every", "1", "-trace", trace})
	if err != nil {
		t.Fatal(err)
	}
	if !traceHasRunSpan(t, trace) {
		t.Error("baseline run traced no fed/run span")
	}
	ck, err := fed.LoadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 3 {
		t.Errorf("checkpoint at round %d, want 3", ck.Round)
	}

	failTrace := filepath.Join(dir, "fail.jsonl")
	err = run([]string{"-dataset", "cora", "-divisor", "12", "-rounds", "4", "-chaos",
		"-chaos-crash-frac", "0.5", "-chaos-crash-round", "2", "-trace", failTrace})
	if err == nil {
		t.Fatal("a chaos crash under failfast did not fail the run")
	}
	if !traceHasRunSpan(t, failTrace) {
		t.Error("failed run traced no fed/run span")
	}
}

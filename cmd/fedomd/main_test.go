package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fedomd"
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

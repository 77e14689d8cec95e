package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"fedomd/internal/analysis"
)

// vet runs the tool in process from the module root, exactly as main does
// but with stdout and stderr captured into one stream, and returns that
// output plus the exit status.
func vet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	fs := flag.NewFlagSet("fedomdvet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	code := run(&out, &out, fs, args)
	return out.String(), code
}

// TestExitCodes pins the three exit statuses — 0 clean, 1 diagnostics,
// 2 load failure — and the output shape of each flag. `make check` covers the
// `go run ./cmd/fedomdvet` path over the whole tree.
func TestExitCodes(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)

	out, code := vet(t, "./internal/telemetry")
	if code != 0 {
		t.Errorf("clean package: got exit %d, output:\n%s", code, out)
	}

	out, code = vet(t, "./internal/analysis/testdata/src/intoalias")
	if code != 1 {
		t.Errorf("fixture with violations: got exit %d, want 1, output:\n%s", code, out)
	}
	if !strings.Contains(out, "(intoalias)") {
		t.Errorf("diagnostic output missing analyzer tag:\n%s", out)
	}
	if strings.Contains(out, "panic") {
		t.Errorf("output mentions a panic:\n%s", out)
	}

	out, code = vet(t, "./internal/analysis/testdata/broken")
	if code != 2 {
		t.Errorf("corrupt package: got exit %d, want 2, output:\n%s", code, out)
	}
	if !strings.Contains(out, "parsing") || strings.Contains(out, "panic") {
		t.Errorf("corrupt package output not a clean diagnostic:\n%s", out)
	}

	// -json: every line is one parseable object with the stable field set.
	out, code = vet(t, "-json", "./internal/analysis/testdata/src/intoalias")
	if code != 1 {
		t.Errorf("-json run: got exit %d, want 1, output:\n%s", code, out)
	}
	sawJSON := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // stderr lines share the stream
		}
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("-json emitted unparseable line %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Analyzer != "intoalias" || d.Message == "" {
			t.Fatalf("-json diagnostic incomplete: %+v", d)
		}
		sawJSON = true
	}
	if !sawJSON {
		t.Errorf("-json run produced no JSON diagnostics:\n%s", out)
	}

	// -only restricts the suite: the intoalias fixture is clean under a
	// disjoint analyzer, and unknown names are a usage error.
	out, code = vet(t, "-only", "poolpair,spanend", "./internal/analysis/testdata/src/intoalias")
	if code != 0 {
		t.Errorf("-only with disjoint analyzers: got exit %d, want 0, output:\n%s", code, out)
	}
	out, code = vet(t, "-only", "nosuch", "./internal/telemetry")
	if code != 2 || !strings.Contains(out, "unknown analyzer") {
		t.Errorf("-only nosuch: got exit %d, output:\n%s", code, out)
	}

	// -timing writes one summary line naming every analyzer that ran.
	out, code = vet(t, "-timing", "-only", "tapelease", "./internal/telemetry")
	if code != 0 {
		t.Errorf("-timing run: got exit %d, want 0, output:\n%s", code, out)
	}
	if !strings.Contains(out, "fedomdvet timing:") || !strings.Contains(out, "tapelease") {
		t.Errorf("-timing output missing the summary line:\n%s", out)
	}
}

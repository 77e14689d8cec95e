package analysis

// The fixture harness: each analyzer is exercised against a small package
// under testdata/src/<name>/ whose lines carry // want "regex" expectations.
// A fixture type-checks against the real fedomd packages (the loader resolves
// module-internal imports from the module tree), so the fixtures stay honest
// about the APIs they exercise.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts want expectations from a source line. The pattern is
// quoted with backticks so fixture regexes can contain double quotes.
var wantRE = regexp.MustCompile("want `([^`]+)`")

// expectation is one // want on one fixture line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<name>, runs the analyzers and diffs the
// diagnostics against the fixture's want comments.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// The shared loader type-checks the fedomd dependency packages once for
	// the whole test binary instead of once per fixture.
	loader, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", name)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}

	wants, err := collectWants(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range Run(pkg, analyzers) {
		if !claimWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants scans every fixture file for want comments.
func collectWants(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}

// claimWant consumes the first unhit expectation matching the diagnostic.
func claimWant(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func TestPoolPairFixture(t *testing.T) {
	runFixture(t, "poolpair", []*Analyzer{PoolPair})
}

func TestTapeLeaseFixture(t *testing.T) {
	runFixture(t, "tapelease", []*Analyzer{TapeLease})
}

func TestIntoAliasFixture(t *testing.T) {
	runFixture(t, "intoalias", []*Analyzer{IntoAlias})
}

func TestTelemetryKeyFixture(t *testing.T) {
	runFixture(t, "telemetrykey", []*Analyzer{TelemetryKey})
}

func TestParForCaptureFixture(t *testing.T) {
	runFixture(t, "parforcapture", []*Analyzer{ParForCapture})
}

func TestSpanEndFixture(t *testing.T) {
	runFixture(t, "spanend", []*Analyzer{SpanEnd})
}

func TestResidualStateFixture(t *testing.T) {
	runFixture(t, "residualstate", []*Analyzer{ResidualState})
}

func TestIgnoreDirectives(t *testing.T) {
	runFixture(t, "ignore", All())
}

// Run is RunTimed without the timings.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkg, analyzers)
	return diags
}

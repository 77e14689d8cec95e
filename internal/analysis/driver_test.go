package analysis

import (
	"encoding/json"
	"go/build"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorruptFixtureDiagnostics pins the driver's behaviour on broken input:
// a clean error naming the failure, never a panic.
func TestCorruptFixtureDiagnostics(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"broken", "parsing"},
		{"brokentypes", "type-checking"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			_, err = loader.LoadDir(filepath.Join(root, "internal", "analysis", "testdata", tc.dir))
			if err == nil {
				t.Fatalf("expected a load error for testdata/%s", tc.dir)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadDirOutsideModule pins the refusal to analyze paths above go.mod.
func TestLoadDirOutsideModule(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(filepath.Dir(root)); err == nil {
		t.Fatal("expected an error loading a directory outside the module root")
	}
}

// TestBuildConstraintFiltering pins the loader's file selection against an
// explicit build context: the buildtags fixture mirrors the internal/mat SIMD
// layout (//go:build !amd64 portable file, bodyless _amd64.go decl backed by
// a .s file), and the loader must type-check exactly one Axpy per GOARCH —
// the same selection `go build` makes for the real kernels.
func TestBuildConstraintFiltering(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "buildtags")
	cases := []struct {
		goarch  string
		include string
		exclude string
	}{
		{"amd64", "axpy_amd64.go", "axpy.go"},
		{"arm64", "axpy.go", "axpy_amd64.go"},
	}
	for _, tc := range cases {
		t.Run(tc.goarch, func(t *testing.T) {
			// A fresh loader per context: the package cache is keyed by import
			// path, not by build context.
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			ctx := build.Default
			ctx.GOARCH = tc.goarch
			loader.Build = &ctx
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatalf("loading buildtags fixture for %s: %v", tc.goarch, err)
			}
			names := map[string]bool{}
			for _, f := range pkg.Files {
				names[filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
			}
			if !names[tc.include] {
				t.Errorf("GOARCH=%s: %s not in the file set %v", tc.goarch, tc.include, names)
			}
			if names[tc.exclude] {
				t.Errorf("GOARCH=%s: %s should have been filtered out, got %v", tc.goarch, tc.exclude, names)
			}
			if !names["doc.go"] {
				t.Errorf("GOARCH=%s: unconstrained doc.go missing from %v", tc.goarch, names)
			}
			// Both contexts type-check: exactly one Axpy is in scope each time.
			if pkg.Types.Scope().Lookup("Axpy") == nil {
				t.Errorf("GOARCH=%s: Axpy not defined", tc.goarch)
			}
		})
	}
}

// TestExpandPatterns pins wildcard expansion: testdata and hidden trees are
// skipped, plain directories pass through.
func TestExpandPatterns(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("wildcard expansion included a testdata directory: %s", d)
		}
	}
	var sawMat bool
	for _, d := range dirs {
		if filepath.Base(d) == "mat" {
			sawMat = true
		}
	}
	if !sawMat {
		t.Errorf("wildcard expansion missed internal/mat: %v", dirs)
	}
}

// runVet executes the command from the module root and returns combined
// output plus the exit code.
func runVet(t *testing.T, root string, cmd *exec.Cmd) (string, int) {
	t.Helper()
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
	}
	return string(out), ee.ExitCode()
}

// govet runs the fedomdvet binary built once per test (go run would flatten
// the binary's exit code 2 to its own 1, hiding the load-failure status).
func govet(t *testing.T, root, bin string, args ...string) (string, int) {
	t.Helper()
	return runVet(t, root, exec.Command(bin, args...))
}

// TestExitCodes shells out to the real tool — once through `go run` to pin
// the Makefile's invocation, then through the built binary — and pins the
// three exit statuses: 0 clean, 1 diagnostics, 2 load failure.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping build-and-exec round trips in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	// The clean case through go run, exactly as `make lint` invokes it.
	out, code := runVet(t, root, exec.Command("go", "run", "./cmd/fedomdvet", "./internal/telemetry"))
	if code != 0 {
		t.Errorf("clean package: got exit %d, output:\n%s", code, out)
	}

	bin := filepath.Join(t.TempDir(), "fedomdvet")
	if bout, bcode := runVet(t, root, exec.Command("go", "build", "-o", bin, "./cmd/fedomdvet")); bcode != 0 {
		t.Fatalf("building fedomdvet: exit %d\n%s", bcode, bout)
	}

	out, code = govet(t, root, bin, "./internal/analysis/testdata/src/intoalias")
	if code != 1 {
		t.Errorf("fixture with violations: got exit %d, want 1, output:\n%s", code, out)
	}
	if !strings.Contains(out, "(intoalias)") {
		t.Errorf("diagnostic output missing analyzer tag:\n%s", out)
	}
	if strings.Contains(out, "panic") {
		t.Errorf("output mentions a panic:\n%s", out)
	}

	out, code = govet(t, root, bin, "./internal/analysis/testdata/broken")
	if code != 2 {
		t.Errorf("corrupt package: got exit %d, want 2, output:\n%s", code, out)
	}
	if !strings.Contains(out, "parsing") || strings.Contains(out, "panic") {
		t.Errorf("corrupt package output not a clean diagnostic:\n%s", out)
	}

	// -json: every line is one parseable object with the stable field set.
	out, code = govet(t, root, bin, "-json", "./internal/analysis/testdata/src/intoalias")
	if code != 1 {
		t.Errorf("-json run: got exit %d, want 1, output:\n%s", code, out)
	}
	sawJSON := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // stderr noise from CombinedOutput
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
	out, code = govet(t, root, bin, "-only", "poolpair,spanend", "./internal/analysis/testdata/src/intoalias")
	if code != 0 {
		t.Errorf("-only with disjoint analyzers: got exit %d, want 0, output:\n%s", code, out)
	}
	out, code = govet(t, root, bin, "-only", "nosuch", "./internal/telemetry")
	if code != 2 || !strings.Contains(out, "unknown analyzer") {
		t.Errorf("-only nosuch: got exit %d, output:\n%s", code, out)
	}

	// -timing writes one summary line naming every analyzer that ran.
	out, code = govet(t, root, bin, "-timing", "-only", "tapelease", "./internal/telemetry")
	if code != 0 {
		t.Errorf("-timing run: got exit %d, want 0, output:\n%s", code, out)
	}
	if !strings.Contains(out, "fedomdvet timing:") || !strings.Contains(out, "tapelease") {
		t.Errorf("-timing output missing the summary line:\n%s", out)
	}
}

// TestWholeTreeClean runs the full suite over the real module in-process:
// the tree must stay fedomdvet-clean.
func TestWholeTreeClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	// The codec and serving layers must be in the sweep: the codec encoder
	// and the micro-batcher are exactly the kind of pool-handling,
	// telemetry-emitting code the analyzers exist for.
	for _, want := range []string{"internal/codec", "cmd/fedomdserve", "internal/serve", "cmd/bench"} {
		found := false
		for _, dir := range dirs {
			if strings.HasSuffix(filepath.ToSlash(dir), want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pattern expansion missed %s", want)
		}
	}
	var diags []string
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, d := range Run(pkg, All()) {
			diags = append(diags, d.String())
		}
	}
	if len(diags) > 0 {
		t.Errorf("fedomdvet is not clean on the tree:\n%s", strings.Join(diags, "\n"))
	}
}

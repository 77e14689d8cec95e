package analysis

import (
	"go/build"
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

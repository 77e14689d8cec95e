package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("fedomd/internal/mat").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of this module using only the
// standard library: module-internal imports resolve against the module tree,
// everything else (the standard library) through go/importer's source
// importer. Loaded packages are cached, so analyzing the whole tree
// type-checks each dependency once. LoadDir is safe for concurrent use;
// concurrent loads serialise on one cache.
type Loader struct {
	ModuleRoot string
	ModulePath string
	// Build selects the build context used to filter constrained files
	// (GOOS/GOARCH suffixes, //go:build lines). Nil means build.Default — the
	// host context, matching what `go build` compiles here. Set it before the
	// first LoadDir to analyze another platform's file set.
	Build *build.Context

	mu      sync.Mutex
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader builds a Loader rooted at the module directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadDir loads the package in dir (which must live under the module root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path, abs)
}

// sharedLoaders memoises one Loader per module root for the whole process, so
// every fixture test and driver in a test binary shares a single type-checking
// cache: the fedomd dependency packages are parsed and checked once, not once
// per fixture.
var (
	sharedMu      sync.Mutex
	sharedLoaders = map[string]*Loader{}
)

// SharedLoader returns the process-wide Loader for the module rooted at
// moduleRoot, creating it on first use. Callers needing a custom Build
// context must use NewLoader — shared loaders always analyze the host
// platform's file set.
func SharedLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	sharedLoaders[abs] = l
	return l, nil
}

// dirFor maps a module-internal import path to its source directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// load parses and type-checks one package directory, memoised by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, checkErr := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		// Surface the first few positions so the failure reads like vet
		// output instead of a stack trace.
		msgs := make([]string, 0, 3)
		for i, e := range typeErrs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("… and %d more", len(typeErrs)-3))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s failed:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if checkErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, checkErr)
	}

	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses every buildable non-test Go file of dir. Build-constrained
// files (GOOS/GOARCH filename suffixes and //go:build lines, e.g. the amd64
// SIMD kernels and their portable fallbacks) are filtered through go/build's
// host context, matching what `go build` would compile here.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	buildCtx := build.Default
	if l.Build != nil {
		buildCtx = *l.Build
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := buildCtx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	var parseErrs []string
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			parseErrs = append(parseErrs, err.Error())
			continue
		}
		files = append(files, f)
	}
	if len(parseErrs) > 0 {
		return nil, fmt.Errorf("analysis: parsing %s failed:\n\t%s", dir, strings.Join(parseErrs, "\n\t"))
	}
	return files, nil
}

// loaderImporter adapts the Loader to types.Importer: module-internal paths
// load from source through the Loader, anything else goes to the standard
// library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if dir, ok := l.dirFor(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// ExpandPatterns resolves command-line package patterns against dir:
// "./..."-style wildcards walk the tree (skipping testdata, vendor and
// hidden directories), anything else is taken as a single directory. The
// result is a sorted list of package directories.
func ExpandPatterns(dir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(dir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if rest == "" || rest == "./" {
				root = dir
			}
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasBuildableGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(dir, filepath.FromSlash(pat)))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasBuildableGoFiles reports whether dir directly contains at least one
// non-test Go file.
func hasBuildableGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

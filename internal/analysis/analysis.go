// Package analysis is a from-scratch static-analysis driver for this module,
// built on nothing but the standard library's go/parser and go/types. It
// exists because the zero-churn training path (DESIGN.md §7) rests on
// ownership invariants — every mat.GetDense needs a matching mat.PutDense,
// every long-lived ad.Tape needs a Release, fused *Into kernels must not be
// handed aliasing destinations, telemetry keys must be stable constants —
// that the compiler cannot check and that comments alone will not keep true
// as the runtime grows.
//
// The package defines the Analyzer/Pass plumbing, a suppression layer
// (//fedomdvet:ignore reason), the module loader (load.go), the control-flow
// graph and dataflow fixpoint engine (cfg/), and the seven project-specific
// analyzers: the path-sensitive ownership checks poolpair.go, tapelease.go,
// spanend.go and residualstate.go run as lattices over the cfg engine;
// intoalias.go, telemetrykey.go and parforcapture.go are syntactic/taint
// checks. cmd/fedomdvet is the command-line front end; the fixture harness in
// harness.go drives the analyzers over testdata packages with // want "…"
// expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant checker. Run inspects a type-checked
// package through the Pass and reports findings via Pass.Report; it must not
// mutate the Pass.
type Analyzer struct {
	// Name is the short identifier appended to every diagnostic, e.g.
	// "poolpair".
	Name string
	// Doc is a one-line description of the invariant the analyzer enforces.
	Doc string
	// Run reports diagnostics for one package.
	Run func(p *Pass)
}

// Pass hands an analyzer one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.analyzer.Name,
	})
}

// Diagnostic is one finding, in go vet's file:line:col coordinate space.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the vet-style file:line:col: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PoolPair, TapeLease, IntoAlias, TelemetryKey,
		ParForCapture, SpanEnd, ResidualState,
	}
}

// ByName resolves analyzer names (as given to fedomdvet -only) against the
// full suite; unknown names are returned for the caller to report.
func ByName(names []string) (found []*Analyzer, unknown []string) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			found = append(found, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return found, unknown
}

// ignoreDirective matches the suppression comment. The reason is everything
// after the marker up to a nested "//" (so a trailing comment on the same
// line is not swallowed into the reason).
const ignoreMarker = "fedomdvet:ignore"

// ignore is one parsed //fedomdvet:ignore directive.
type ignore struct {
	pos    token.Position
	reason string
	// ownLine is true when the directive is the only thing on its line, in
	// which case it applies to the following line instead.
	ownLine bool
}

// RunTimed executes every analyzer over pkg and returns the surviving
// diagnostics, sorted by position: suppressed findings are removed, and each
// //fedomdvet:ignore directive missing a reason is itself reported. A
// directive at the end of a code line covers that line; a directive alone on
// its line covers the next line. It also reports how long each analyzer spent
// on the package (keyed by analyzer name) so the driver can show where lint
// time goes. Suppression time is not attributed to any analyzer.
func RunTimed(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, map[string]time.Duration) {
	var diags []Diagnostic
	timings := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a,
			diags:    &diags,
		}
		start := time.Now()
		a.Run(pass)
		timings[a.Name] += time.Since(start)
	}
	return applySuppressions(pkg, diags), timings
}

// applySuppressions filters diags through the package's ignore directives and
// appends a diagnostic for every reasonless directive.
func applySuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	// covered maps file → set of line numbers an ignore-with-reason covers.
	covered := map[string]map[int]bool{}
	lines := newLineCache()
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ig, ok := parseIgnore(pkg.Fset, c, lines)
				if !ok {
					continue
				}
				if ig.reason == "" {
					out = append(out, Diagnostic{
						Pos:      ig.pos,
						Message:  "//fedomdvet:ignore without a reason (suppressions must say why)",
						Analyzer: "ignore",
					})
					continue
				}
				line := ig.pos.Line
				if ig.ownLine {
					line++
				}
				m := covered[ig.pos.Filename]
				if m == nil {
					m = map[int]bool{}
					covered[ig.pos.Filename] = m
				}
				m[line] = true
			}
		}
	}
	for _, d := range diags {
		if covered[d.Pos.Filename][d.Pos.Line] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// parseIgnore recognises //fedomdvet:ignore comments.
func parseIgnore(fset *token.FileSet, c *ast.Comment, lines *lineCache) (ignore, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, ignoreMarker) {
		return ignore{}, false
	}
	reason := strings.TrimPrefix(text, ignoreMarker)
	// A nested "//" starts an unrelated trailing comment, not the reason.
	if i := strings.Index(reason, "//"); i >= 0 {
		reason = reason[:i]
	}
	pos := fset.Position(c.Pos())
	// The directive sits on its own line (and therefore covers the next one)
	// when nothing but whitespace precedes it on its source line.
	prefix := lines.prefix(pos)
	ownLine := strings.TrimSpace(prefix) == ""
	return ignore{pos: pos, reason: strings.TrimSpace(reason), ownLine: ownLine}, true
}

// lineCache serves source-line prefixes for directive placement checks,
// reading each file at most once.
type lineCache struct {
	files map[string][]string
}

func newLineCache() *lineCache { return &lineCache{files: map[string][]string{}} }

// prefix returns the text before pos on its source line, or "" when the file
// cannot be read (falling back to treating the directive as end-of-line).
func (lc *lineCache) prefix(pos token.Position) string {
	ls, ok := lc.files[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err == nil {
			ls = strings.Split(string(data), "\n")
		}
		lc.files[pos.Filename] = ls
	}
	if pos.Line-1 >= len(ls) || pos.Column-1 > len(ls[pos.Line-1]) {
		return "x" // unknown: assume end-of-line placement
	}
	return ls[pos.Line-1][:pos.Column-1]
}

// --- shared type/AST helpers used by the analyzers ---

// modulePath is the import-path prefix of this module; analyzers match
// functions and types by fully qualified name under it.
const modulePath = "fedomd"

var (
	pathMat       = modulePath + "/internal/mat"
	pathAd        = modulePath + "/internal/ad"
	pathNn        = modulePath + "/internal/nn"
	pathSparse    = modulePath + "/internal/sparse"
	pathTelemetry = modulePath + "/internal/telemetry"
	pathObs       = modulePath + "/internal/obs"
	pathCodec     = modulePath + "/internal/codec"
)

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function-valued variables, built-ins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// funcFullName renders a *types.Func as pkgpath.Name for package-level
// functions and pkgpath.Recv.Name for methods.
func funcFullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// isBuiltin reports whether the call invokes the named Go built-in (append,
// panic, …).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// namedType returns the *types.Named behind t, unwrapping one pointer level.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// exprString renders an expression compactly for alias comparison and
// diagnostics. Two expressions rendering identically are syntactically the
// same access path.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// usesIdentOf reports whether the subtree rooted at n mentions any of the
// given objects.
func usesIdentOf(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// snakeKeyRE is the pkg/snake_case convention for telemetry metric names:
// two or more slash-separated segments of [a-z0-9_]+.
var snakeKeyRE = regexp.MustCompile(`^[a-z0-9_]+(/[a-z0-9_]+)+$`)

// attrKeyRE is the convention for trace span/event attribute keys: one
// snake_case segment, no slashes (attributes qualify a span, whose name
// already carries the pkg/ prefix).
var attrKeyRE = regexp.MustCompile(`^[a-z0-9_]+$`)

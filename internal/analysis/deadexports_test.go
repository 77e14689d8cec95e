package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow lists the exported identifiers under internal/... that no
// non-test code uses but that stay, each with the reason it stays. Keys are
// "pkg.Name" or "pkg.Type.Method", with pkg the import path below internal/.
var deadExportAllow = map[string]string{
	"analysis.Diagnostic.String":      "implements a stdlib interface (fmt.Stringer)",
	"analysis.loaderImporter.Import":  "implements a stdlib interface (go/types.Importer)",
	"analysis/cfg.ScopeExit.End":      "implements a stdlib interface (go/ast.Node)",
	"fed.ServeClient":                 "test helper used by other packages' tests (chaos retry tests)",
	"graph.Graph.FeatureMeanByClass":  "test helper used by other packages' tests (dataset class signal)",
	"graph.Stats.String":              "implements a stdlib interface (fmt.Stringer)",
	"mat.Add":                         "test helper used by other packages' tests (sparse)",
	"mat.Apply":                       "test helper used by other packages' tests (ad, core, moments, nn)",
	"mat.Dense.Equal":                 "test helper used by other packages' tests (codec, fed, graph, nn)",
	"mat.Dense.EqualApprox":           "test helper used by other packages' tests",
	"mat.Dense.Fill":                  "test helper used by other packages' tests (gaussian, nn, serve)",
	"mat.Dense.SliceRows":             "test helper used by other packages' tests (gaussian, moments)",
	"mat.Dense.String":                "implements a stdlib interface (fmt.Stringer)",
	"mat.Dense.T":                     "test helper used by other packages' tests (sparse)",
	"mat.MatMulSerial":                "reference oracle the tests compare against",
	"mat.Min":                         "test helper used by other packages' tests (ad, nn)",
	"mat.NewFromRows":                 "test helper used by other packages' tests",
	"mat.PoolStats":                   "test helper used by other packages' tests (ad)",
	"mat.SetDebug":                    "turns on the buffer pool's double-put check for any package's tests",
	"mat.SetWorkers":                  "test helper used by other packages' tests (partition, sparse)",
	"mat.Sum":                         "test helper used by other packages' tests (ad)",
	"moments.CMD":                     "reference oracle the tests compare against (scalar CMD of eq. 9)",
	"moments.PooledReference":         "reference oracle the tests compare against",
	"nn.Params.L2Distance":            "test helper used by other packages' tests (baselines, core, fed)",
	"obs.HealthEvent.String":          "implements a stdlib interface (fmt.Stringer)",
	"obs.buildVar.String":             "implements a stdlib interface (expvar.Var)",
	"sparse.CSR.At":                   "test helper used by other packages' tests (dataset, graph)",
	"sparse.CSR.ToDense":              "test helper used by other packages' tests (graph)",
	"telemetry.Aggregator.GaugeValue": "test helper used by other packages' tests (fed)",
}

// TestNoDeadExports fails on any exported func, method, type, var or const
// under internal/... that no non-test file of the module uses outside its own
// declaration. A method counts as used when a non-test selection resolves to
// exactly that method, or to an interface method its receiver type
// implements; a method reached only from outside the module (a stdlib
// interface such as fmt.Stringer) has to be allow-listed. Code only
// tests call still has to be read, vetted and kept alias-safe; it moves into
// its package's _test.go files or goes, unless deadExportAllow says why not.
func TestNoDeadExports(t *testing.T) {
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
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	dead := deadExports(pkgs, loader.ModulePath+"/internal/")
	var unlisted []string
	for _, name := range dead {
		if _, ok := deadExportAllow[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d exported identifiers have no non-test use; delete them, move them into their package's tests, or allow-list them with a reason:\n\t%s",
			len(unlisted), strings.Join(unlisted, "\n\t"))
	}
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
	}
	for name, reason := range deadExportAllow {
		if !isDead[name] {
			t.Errorf("allow-list entry %s is not a dead export (used, renamed or gone); drop it", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
}

// ifaceSel is one non-test selection of an interface method.
type ifaceSel struct {
	iface *types.Interface
	pos   token.Pos
}

// span is the source range of one declaration.
type span struct{ pos, end token.Pos }

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

// exported is one exported declaration under inspection.
type exported struct {
	obj    types.Object
	method string // method name; empty for package-level objects
	decl   span
}

// deadExports returns, sorted and named relative to prefix, the exported
// declarations of the packages whose import path starts with prefix that
// nothing in pkgs uses outside the declaration itself. Identifiers inside a
// method's receiver name the method's own type and never count as a use of
// it. A method is used through a selection of exactly its *types.Func (a
// plain use) or of a same-named interface method its receiver implements.
func deadExports(pkgs []*Package, prefix string) []string {
	var decls []exported
	uses := map[types.Object][]token.Pos{}
	ifaceSels := map[string][]ifaceSel{}
	for _, pkg := range pkgs {
		inScope := strings.HasPrefix(pkg.Path, prefix)
		receiverIdents := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiverIdents[id] = true
							}
							return true
						})
					}
					if !inScope || !d.Name.IsExported() {
						continue
					}
					e := exported{obj: pkg.Info.Defs[d.Name], decl: span{d.Pos(), d.End()}}
					if d.Recv != nil {
						e.method = d.Name.Name
					}
					decls = append(decls, e)
				case *ast.GenDecl:
					if !inScope {
						continue
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, exported{obj: pkg.Info.Defs[s.Name], decl: span{s.Pos(), s.End()}})
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									decls = append(decls, exported{obj: pkg.Info.Defs[id], decl: span{s.Pos(), s.End()}})
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() != types.FieldVal {
						recv := s.Obj().Type().(*types.Signature).Recv()
						if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
							name := sel.Sel.Name
							ifaceSels[name] = append(ifaceSels[name], ifaceSel{iface, sel.Sel.Pos()})
						}
					}
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if !receiverIdents[id] {
				obj = origin(obj)
				uses[obj] = append(uses[obj], id.Pos())
			}
		}
	}

	var dead []string
	for _, e := range decls {
		used := false
		for _, p := range uses[e.obj] {
			if !e.decl.contains(p) {
				used = true
				break
			}
		}
		if e.method != "" && !used {
			recv := e.obj.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			ptr := types.NewPointer(recv)
			for _, s := range ifaceSels[e.method] {
				if !e.decl.contains(s.pos) && types.Implements(ptr, s.iface) {
					used = true
					break
				}
			}
		}
		if !used {
			name := e.obj.Pkg().Path() + "." + e.obj.Name()
			if f, ok := e.obj.(*types.Func); ok {
				name = funcFullName(f)
			}
			dead = append(dead, strings.TrimPrefix(name, prefix))
		}
	}
	sort.Strings(dead)
	return dead
}

// origin maps an instantiated generic function or field back to its generic
// declaration, the object the declaring package defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

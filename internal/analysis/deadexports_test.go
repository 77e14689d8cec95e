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
	"analysis.loaderImporter.Import":  "implements a stdlib interface (go/types.Importer)",
	"fed.ServeClient":                 "test helper used by other packages' tests (chaos retry tests)",
	"graph.Graph.FeatureMeanByClass":  "test helper used by other packages' tests (dataset class signal)",
	"mat.Add":                         "test helper used by other packages' tests (sparse)",
	"mat.Apply":                       "test helper used by other packages' tests (ad, core, moments, nn)",
	"mat.Dense.EqualApprox":           "test helper used by other packages' tests",
	"mat.Dense.Fill":                  "test helper used by other packages' tests (gaussian, nn, serve)",
	"mat.Dense.SliceRows":             "test helper used by other packages' tests (gaussian, moments)",
	"mat.Dense.T":                     "test helper used by other packages' tests (sparse)",
	"mat.MatMulSerial":                "reference oracle the tests compare against",
	"mat.Min":                         "test helper used by other packages' tests (ad, nn)",
	"mat.NewFromRows":                 "test helper used by other packages' tests",
	"mat.PoolStats":                   "test helper used by other packages' tests (ad)",
	"mat.PowElem":                     "test helper used by other packages' tests (moments)",
	"mat.SetDebug":                    "turns on the buffer pool's double-put check for any package's tests",
	"mat.SetWorkers":                  "test helper used by other packages' tests (partition, sparse)",
	"mat.Sum":                         "test helper used by other packages' tests (ad)",
	"moments.CMD":                     "reference oracle the tests compare against (scalar CMD of eq. 9)",
	"moments.PooledReference":         "reference oracle the tests compare against",
	"nn.Params.L2Distance":            "test helper used by other packages' tests (baselines, core, fed)",
	"sparse.CSR.ToDense":              "test helper used by other packages' tests (graph)",
	"telemetry.Aggregator.GaugeValue": "test helper used by other packages' tests (fed)",
}

// TestNoDeadExports fails on any exported func, method, type, var or const
// under internal/... that no non-test file of the module uses outside its own
// declaration. A method counts as used when any non-test selector names a
// method of that name, so interface dispatch never reads as dead. Code only
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
// it.
func deadExports(pkgs []*Package, prefix string) []string {
	var decls []exported
	uses := map[types.Object][]token.Pos{}
	methodSels := map[string][]token.Pos{}
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
						methodSels[sel.Sel.Name] = append(methodSels[sel.Sel.Name], sel.Sel.Pos())
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
		refs := uses[e.obj]
		if e.method != "" {
			refs = methodSels[e.method]
		}
		used := false
		for _, p := range refs {
			if !e.decl.contains(p) {
				used = true
				break
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

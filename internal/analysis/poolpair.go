package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedomd/internal/analysis/cfg"
)

// PoolPair enforces the mat buffer-pool ownership contract (DESIGN.md §7): a
// buffer obtained from mat.GetDense or mat.GetDenseUnzeroed must, on every
// path through the function that obtained it, either reach mat.PutDense, be
// handed to a deferred release, or have its ownership visibly transferred
// (returned, stored into a struct/slice/map, appended to a registry such as
// the ad.Tape's owned list, or captured by a closure). Early returns and
// error paths that drop a live buffer are reported as leaks, and a buffer
// that can reach PutDense twice is reported as a double put.
//
// The analysis runs on the cfg dataflow engine (DESIGN.md §13): each scope
// is lowered to a control-flow graph, per-buffer facts reach a fixpoint with
// conservative joins (released only when released on every incoming path,
// leaked when live on any), and a reporting pass over the fixpoint flags
// violations exactly once. Loop back edges are real edges, so a second
// iteration putting a buffer the first iteration already put is a double
// put, and panics unwind without leaking.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "mat.GetDense and mat.GetDenseUnzeroed buffers must reach mat.PutDense (or an ownership transfer) on every path",
	Run:  runPoolPair,
}

var (
	fnGetDense         = pathMat + ".GetDense"
	fnGetDenseUnzeroed = pathMat + ".GetDenseUnzeroed"
	fnPutDense         = pathMat + ".PutDense"
	// fnParamsAdd is an owning sink: a pooled Dense stored into an nn.Params
	// set belongs to whoever releases the set (codec.PutParams, the fed
	// aggregation pool), not to the scope that allocated it.
	fnParamsAdd = pathNn + ".Params.Add"
)

// isPoolGet reports whether fn hands out a pooled buffer.
func isPoolGet(fn *types.Func) bool {
	name := funcFullName(fn)
	return name == fnGetDense || name == fnGetDenseUnzeroed
}

func runPoolPair(p *Pass) {
	forEachFuncScope(p.Files, func(body *ast.BlockStmt) {
		analyzePoolScope(p, body)
	})
}

// forEachFuncScope visits the body of every function declaration and every
// function literal. Each scope is analyzed independently: a closure's
// buffers are its own responsibility, and a closure capturing an outer
// buffer is an ownership transfer from the outer scope's point of view.
func forEachFuncScope(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// bufState is the abstract state of one tracked pool buffer at one program
// point.
type bufState struct {
	live     bool // the pool get has executed; ownership is with this scope
	defRel   bool // released on every path reaching this point
	mayRel   bool // released on at least one path reaching this point
	deferred bool // a registered defer will release it at function exit
	escaped  bool // ownership visibly left this scope: stop reporting
}

// poolEnv is the dataflow fact: state for every tracked buffer variable.
type poolEnv struct {
	state map[types.Object]*bufState
}

func (e *poolEnv) clone() *poolEnv {
	c := &poolEnv{state: make(map[types.Object]*bufState, len(e.state))}
	for k, v := range e.state {
		s := *v
		c.state[k] = &s
	}
	return c
}

// mergePoolEnvs joins b into a at a control-flow join. A buffer tracked on
// only one incoming path keeps that path's state (the other path predates
// its declaration).
func mergePoolEnvs(a, b *poolEnv) *poolEnv {
	for k, sb := range b.state {
		sa, ok := a.state[k]
		if !ok {
			s := *sb
			a.state[k] = &s
			continue
		}
		sa.live = sa.live || sb.live
		sa.defRel = sa.defRel && sb.defRel
		sa.mayRel = sa.mayRel || sb.mayRel
		sa.deferred = sa.deferred && sb.deferred
		sa.escaped = sa.escaped || sb.escaped
	}
	return a
}

func poolEnvEqual(a, b *poolEnv) bool {
	if len(a.state) != len(b.state) {
		return false
	}
	for k, sa := range a.state {
		sb, ok := b.state[k]
		if !ok || *sa != *sb {
			return false
		}
	}
	return true
}

// poolWalker interprets one function scope's CFG nodes.
type poolWalker struct {
	pass      *Pass
	graph     *cfg.Graph
	declDepth map[types.Object]int // lexical depth a tracked buffer is keyed to
	varDepth  map[types.Object]int // lexical depth of each variable declaration seen
	report    bool                 // reporting pass vs fixpoint pass
}

func analyzePoolScope(p *Pass, body *ast.BlockStmt) {
	g := cfg.Build(body, p.Info)
	w := &poolWalker{pass: p, graph: g, declDepth: map[types.Object]int{}, varDepth: map[types.Object]int{}}
	in := cfg.Forward(g, cfg.Analysis[*poolEnv]{
		Entry:    func() *poolEnv { return &poolEnv{state: map[types.Object]*bufState{}} },
		Clone:    (*poolEnv).clone,
		Merge:    mergePoolEnvs,
		Equal:    poolEnvEqual,
		Transfer: w.transfer,
	})
	// Reporting pass: re-run the transfer over each reachable block's
	// fixpoint entry fact with reporting on. Every node is visited exactly
	// once, so every violation is reported exactly once.
	w.report = true
	for _, b := range g.Blocks {
		if env, ok := in[b]; ok {
			w.transfer(b, env.clone())
		}
	}
}

func (w *poolWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.report {
		w.pass.Reportf(pos, format, args...)
	}
}

// leakCheck reports every buffer that is live and unreleased among those for
// which keep returns true.
func (w *poolWalker) leakCheck(env *poolEnv, pos token.Pos, what string, keep func(obj types.Object) bool) {
	for obj, s := range env.state {
		if !s.live || s.defRel || s.deferred || s.escaped {
			continue
		}
		if keep != nil && !keep(obj) {
			continue
		}
		w.reportf(pos, "pooled buffer %s may leak: not returned to the pool %s (taken from the mat pool at an earlier line)", obj.Name(), what)
	}
}

// dropScoped removes buffers declared at depth >= exitDepth: their scope is
// ending, so outer blocks (and the next loop iteration, via back edges) must
// not see them again.
func dropScoped(env *poolEnv, declDepth map[types.Object]int, exitDepth int) {
	for obj := range env.state {
		if declDepth[obj] >= exitDepth {
			delete(env.state, obj)
		}
	}
}

// transfer interprets one basic block's nodes against env.
func (w *poolWalker) transfer(b *cfg.Block, env *poolEnv) *poolEnv {
	for _, nd := range b.Nodes {
		switch n := nd.N.(type) {
		case *cfg.ScopeExit:
			w.leakCheck(env, n.Brace, "before it goes out of scope", func(obj types.Object) bool {
				return w.declDepth[obj] == n.Depth
			})
			dropScoped(env, w.declDepth, n.Depth)

		case *ast.AssignStmt:
			w.handleAssign(n, env, nd.Depth)

		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if w.handlePut(call, env) {
					continue
				}
			}
			w.markEscapes(n.X, env)

		case *ast.DeferStmt:
			w.handleDefer(n, env)

		case *ast.GoStmt:
			// A spawned goroutine may outlive the scope: everything it
			// touches escapes.
			w.markCallEscapes(n.Call, env)

		case *ast.SendStmt:
			w.markAliasEscape(n.Value, env)
			w.markEscapes(n.Chan, env)
			w.markEscapes(n.Value, env)

		case *ast.ReturnStmt:
			for _, r := range n.Results {
				w.markAliasEscape(r, env)
				w.markEscapes(r, env)
			}
			w.leakCheck(env, n.Pos(), "on this return path", nil)

		case *ast.BranchStmt:
			// break/continue exit the construct's body scope: leak-check and
			// drop everything declared inside it, so back edges do not
			// recirculate dead declarations. goto gets no depth (silent).
			if exitDepth, ok := w.graph.BranchDepth[n]; ok {
				w.leakCheck(env, n.Pos(), "on this "+n.Tok.String()+" path", func(obj types.Object) bool {
					return w.declDepth[obj] >= exitDepth
				})
				dropScoped(env, w.declDepth, exitDepth)
			}

		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							w.declare(id, nd.Depth)
						}
					}
				}
			}
			w.markEscapes(n, env)

		case *ast.IncDecStmt:
			// cannot involve a *mat.Dense

		default:
			// Lowered conditions, switch tags, case expressions, range
			// operands: scan for ownership-transferring uses.
			w.markEscapes(nd.N, env)
		}
	}
	return env
}

// handleAssign processes declarations of tracked buffers, aliasing escapes
// and overwrites.
func (w *poolWalker) handleAssign(s *ast.AssignStmt, env *poolEnv, depth int) {
	if s.Tok == token.DEFINE {
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				w.declare(id, depth)
			}
		}
	}
	rhs := s.Rhs
	parallel := len(s.Lhs) == len(rhs)
	for i, l := range s.Lhs {
		var r ast.Expr
		if parallel {
			r = ast.Unparen(rhs[i])
		}
		lid, _ := ast.Unparen(l).(*ast.Ident)
		if r != nil {
			if call, ok := r.(*ast.CallExpr); ok && isPoolGet(calleeFunc(w.pass.Info, call)) && lid != nil && lid.Name != "_" {
				obj := w.pass.Info.Defs[lid]
				if obj == nil {
					obj = w.pass.Info.Uses[lid]
				}
				if obj == nil {
					continue
				}
				if st, ok := env.state[obj]; ok && st.live && !st.defRel && !st.deferred && !st.escaped {
					w.reportf(s.Pos(), "pooled buffer %s is overwritten before being returned to the pool", obj.Name())
				}
				env.state[obj] = &bufState{live: true}
				d, seen := w.varDepth[obj]
				if !seen {
					d = depth // a parameter or a captured variable
				}
				w.declDepth[obj] = d
				w.markEscapes(call, env) // arguments could mention other buffers
				continue
			}
			// Overwriting a live tracked buffer with anything else drops it.
			if lid != nil {
				if obj := w.pass.Info.Uses[lid]; obj != nil {
					if st, ok := env.state[obj]; ok && st.live && !st.defRel && !st.deferred && !st.escaped {
						w.reportf(s.Pos(), "pooled buffer %s is overwritten before being returned to the pool", obj.Name())
					}
					delete(env.state, obj)
				}
			}
			w.markAliasEscape(r, env)
			w.markEscapes(r, env)
			continue
		}
		// Non-parallel assignment (multi-value call): nothing to track, but
		// escapes still apply.
		_ = i
	}
	if !parallel {
		for _, r := range rhs {
			w.markEscapes(r, env)
		}
	}
}

// declare records the lexical depth at which id declares a variable. A pool
// buffer assigned to that variable later, even inside a nested branch, is
// keyed to this depth: it stays alive as long as the variable does.
func (w *poolWalker) declare(id *ast.Ident, depth int) {
	if obj := w.pass.Info.Defs[id]; obj != nil {
		w.varDepth[obj] = depth
	}
}

// handlePut recognises mat.PutDense(x) and flags double puts. It reports
// true when the call was a PutDense.
func (w *poolWalker) handlePut(call *ast.CallExpr, env *poolEnv) bool {
	if funcFullName(calleeFunc(w.pass.Info, call)) != fnPutDense {
		return false
	}
	if len(call.Args) != 1 {
		return true
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return true
	}
	obj := w.pass.Info.Uses[id]
	if obj == nil {
		return true
	}
	st, tracked := env.state[obj]
	if !tracked {
		return true
	}
	if st.escaped {
		return true
	}
	if st.mayRel {
		w.reportf(call.Pos(), "%s may already have been returned to the pool (double mat.PutDense)", obj.Name())
	}
	st.defRel, st.mayRel = true, true
	st.live = false
	return true
}

// handleDefer classifies a defer as either a release (defer mat.PutDense(x),
// or a deferred closure whose body puts x back) or an escape for any other
// captured buffer.
func (w *poolWalker) handleDefer(s *ast.DeferStmt, env *poolEnv) {
	call := s.Call
	if funcFullName(calleeFunc(w.pass.Info, call)) == fnPutDense && len(call.Args) == 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil {
				if st, ok := env.state[obj]; ok {
					st.deferred = true
				}
				return
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		released := putTargets(w.pass.Info, lit.Body)
		for obj, st := range env.state {
			if !usesIdentOf(w.pass.Info, lit.Body, map[types.Object]bool{obj: true}) {
				continue
			}
			if released[obj] {
				st.deferred = true
			} else {
				st.escaped = true
			}
		}
		return
	}
	w.markEscapes(call, env)
}

// putTargets collects the objects passed to mat.PutDense anywhere in n.
func putTargets(info *types.Info, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || funcFullName(calleeFunc(info, call)) != fnPutDense || len(call.Args) != 1 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// markAliasEscape marks e's object escaped when e is exactly a tracked
// identifier — an alias was created (y := x, s.f = x, return x, ch <- x).
func (w *poolWalker) markAliasEscape(e ast.Expr, env *poolEnv) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	if obj := w.pass.Info.Uses[id]; obj != nil {
		if st, ok := env.state[obj]; ok {
			st.escaped = true
		}
	}
}

// markEscapes scans an expression subtree for ownership-transferring uses of
// tracked buffers: composite literals, append, address-of, closures and
// goroutine arguments. Plain calls borrow their arguments and do not
// transfer ownership — except the known owning sinks (nn.Params.Add), which
// keep the buffer alive past the call.
func (w *poolWalker) markEscapes(n ast.Node, env *poolEnv) {
	if n == nil {
		return
	}
	info := w.pass.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				w.markAliasEscape(elt, env)
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "append") {
				for _, a := range n.Args {
					w.markAliasEscape(a, env)
				}
			}
			if funcFullName(calleeFunc(info, n)) == fnParamsAdd {
				for _, a := range n.Args {
					w.markAliasEscape(a, env)
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				w.markAliasEscape(n.X, env)
			}
		case *ast.FuncLit:
			// A non-deferred closure may stash the buffer anywhere (it is,
			// for instance, how backward closures keep op-internal state
			// alive until Release).
			for obj, st := range env.state {
				if usesIdentOf(info, n.Body, map[types.Object]bool{obj: true}) {
					st.escaped = true
				}
			}
			return false // the literal's own Gets are analyzed separately
		}
		return true
	})
}

// markCallEscapes marks every tracked buffer mentioned anywhere in a go/defer
// call as escaped (goroutines outlive the frame's ownership reasoning).
func (w *poolWalker) markCallEscapes(call *ast.CallExpr, env *poolEnv) {
	for obj, st := range env.state {
		if usesIdentOf(w.pass.Info, call, map[types.Object]bool{obj: true}) {
			st.escaped = true
		}
	}
}

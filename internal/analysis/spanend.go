package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedomd/internal/analysis/cfg"
)

// SpanEnd enforces the span lifecycle contract of the tracing plane
// (DESIGN.md §11): every span obtained from (obs.Spans).Start must reach
// End() — or Fail(), which retires a failed operation's span without a
// latency sample — on every path out of the scope that started it,
// including error returns. A span that never Ends never emits its trace
// record, which silently corrupts the parent/child tree
// TestDistributedTraceTree reconstructs, and loses its histogram sample.
//
// The check is a cfg dataflow (DESIGN.md §13) mirroring poolpair: starts
// create a live fact, End/Fail retire it (must-ended ANDs at joins),
// deferred Ends and visible escapes (returning or storing the span, passing
// it to a call) retire the obligation, and any return/break/scope-exit
// reached with a live un-ended span is reported. Restarting into a live
// span's variable loses the previous span and is reported at the restart.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every obs span must reach End (or Fail) on all paths, including error returns",
	Run:  runSpanEnd,
}

// spanStartFuncs are the span constructors; spanEndFuncs the calls that
// retire the obligation on their receiver.
var (
	spanStartFuncs = map[string]bool{
		pathObs + ".Spans.Start": true,
	}
	spanEndFuncs = map[string]bool{
		pathObs + ".Span.End":  true,
		pathObs + ".Span.Fail": true,
	}
)

func runSpanEnd(p *Pass) {
	if p.Pkg.Path() == pathObs {
		// The tracing package's own plumbing constructs and forwards spans by
		// design.
		return
	}
	forEachFuncScope(p.Files, func(body *ast.BlockStmt) {
		analyzeSpanScope(p, body)
	})
}

// spanState is the abstract state of one tracked span at a program point.
type spanState struct {
	live     bool // started; the End obligation is with this scope
	ended    bool // End/Fail executed on every path reaching this point
	deferred bool // a registered defer will End it at function exit
	escaped  bool // stored/returned/passed on: obligation transferred
}

type spanEnv struct {
	state map[types.Object]*spanState
}

func (e *spanEnv) clone() *spanEnv {
	c := &spanEnv{state: make(map[types.Object]*spanState, len(e.state))}
	for k, v := range e.state {
		s := *v
		c.state[k] = &s
	}
	return c
}

func mergeSpanEnvs(a, b *spanEnv) *spanEnv {
	for k, sb := range b.state {
		sa, ok := a.state[k]
		if !ok {
			s := *sb
			a.state[k] = &s
			continue
		}
		sa.live = sa.live || sb.live
		sa.ended = sa.ended && sb.ended
		sa.deferred = sa.deferred && sb.deferred
		sa.escaped = sa.escaped || sb.escaped
	}
	return a
}

func spanEnvEqual(a, b *spanEnv) bool {
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

type spanWalker struct {
	pass      *Pass
	graph     *cfg.Graph
	declDepth map[types.Object]int
	report    bool
}

func analyzeSpanScope(p *Pass, body *ast.BlockStmt) {
	g := cfg.Build(body, p.Info)
	w := &spanWalker{pass: p, graph: g, declDepth: map[types.Object]int{}}
	in := cfg.Forward(g, cfg.Analysis[*spanEnv]{
		Entry:    func() *spanEnv { return &spanEnv{state: map[types.Object]*spanState{}} },
		Clone:    (*spanEnv).clone,
		Merge:    mergeSpanEnvs,
		Equal:    spanEnvEqual,
		Transfer: w.transfer,
	})
	w.report = true
	for _, b := range g.Blocks {
		if env, ok := in[b]; ok {
			w.transfer(b, env.clone())
		}
	}
}

func (w *spanWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.report {
		w.pass.Reportf(pos, format, args...)
	}
}

// leakCheck reports spans that are live with no retired obligation.
func (w *spanWalker) leakCheck(env *spanEnv, pos token.Pos, what string, keep func(obj types.Object) bool) {
	for obj, s := range env.state {
		if !s.live || s.ended || s.deferred || s.escaped {
			continue
		}
		if keep != nil && !keep(obj) {
			continue
		}
		w.reportf(pos, "span %s is not ended %s (a span that never Ends is lost from the trace tree)", obj.Name(), what)
	}
}

func (w *spanWalker) transfer(b *cfg.Block, env *spanEnv) *spanEnv {
	info := w.pass.Info
	for _, nd := range b.Nodes {
		switch n := nd.N.(type) {
		case *cfg.ScopeExit:
			w.leakCheck(env, n.Brace, "before it goes out of scope", func(obj types.Object) bool {
				return w.declDepth[obj] == n.Depth
			})
			for obj := range env.state {
				if w.declDepth[obj] >= n.Depth {
					delete(env.state, obj)
				}
			}

		case *ast.AssignStmt:
			w.handleAssign(n, env, nd.Depth)

		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				w.markEscapes(n, env)
				continue
			}
			name := funcFullName(calleeFunc(info, call))
			if spanEndFuncs[name] {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							if st, ok := env.state[obj]; ok {
								st.ended = true
								st.live = false
							}
							continue
						}
					}
				}
				continue
			}
			if spanStartFuncs[name] {
				w.reportf(call.Pos(), "result of %s is discarded (the span can never End)", spanDisplayName(call))
				continue
			}
			w.markEscapes(n, env)

		case *ast.DeferStmt:
			w.handleDefer(n, env)

		case *ast.GoStmt:
			w.markEscapes(n, env)

		case *ast.ReturnStmt:
			w.markEscapes(n, env)
			w.leakCheck(env, n.Pos(), "on this return path", nil)

		case *ast.BranchStmt:
			if exitDepth, ok := w.graph.BranchDepth[n]; ok {
				w.leakCheck(env, n.Pos(), "on this "+n.Tok.String()+" path", func(obj types.Object) bool {
					return w.declDepth[obj] >= exitDepth
				})
				for obj := range env.state {
					if w.declDepth[obj] >= exitDepth {
						delete(env.state, obj)
					}
				}
			}

		case *ast.IncDecStmt:
			// cannot involve a span

		default:
			w.markEscapes(nd.N, env)
		}
	}
	return env
}

// handleAssign tracks span starts and escapes. Reassigning a live un-ended
// span's variable — by a new start or anything else — loses the span.
func (w *spanWalker) handleAssign(s *ast.AssignStmt, env *spanEnv, depth int) {
	info := w.pass.Info
	parallel := len(s.Lhs) == len(s.Rhs)
	for i, l := range s.Lhs {
		lid, _ := ast.Unparen(l).(*ast.Ident)
		var r ast.Expr
		if parallel {
			r = ast.Unparen(s.Rhs[i])
		}
		if r == nil {
			continue
		}
		if call, ok := r.(*ast.CallExpr); ok && spanStartFuncs[funcFullName(calleeFunc(info, call))] && lid != nil && lid.Name != "_" {
			obj := info.Defs[lid]
			if obj == nil {
				obj = info.Uses[lid]
			}
			if obj == nil {
				continue
			}
			if st, ok := env.state[obj]; ok && st.live && !st.ended && !st.deferred && !st.escaped {
				w.reportf(s.Pos(), "span %s is started again before End (the previous span is lost from the trace)", obj.Name())
			}
			env.state[obj] = &spanState{live: true}
			w.declDepth[obj] = depth
			w.markEscapes(call, env) // arguments may mention other spans (parent contexts are borrows)
			continue
		}
		// Any other overwrite of a tracked span variable drops it.
		if lid != nil {
			if obj := info.Uses[lid]; obj != nil {
				if st, ok := env.state[obj]; ok && st.live && !st.ended && !st.deferred && !st.escaped {
					w.reportf(s.Pos(), "span %s is overwritten before End (the span is lost from the trace)", obj.Name())
				}
				delete(env.state, obj)
			}
		}
		w.markEscapes(r, env)
	}
	if !parallel {
		for _, r := range s.Rhs {
			w.markEscapes(r, env)
		}
	}
}

// handleDefer marks `defer sp.End()` (and deferred closures that End a
// tracked span) as retiring the obligation; other deferred mentions escape.
func (w *spanWalker) handleDefer(s *ast.DeferStmt, env *spanEnv) {
	info := w.pass.Info
	call := s.Call
	if spanEndFuncs[funcFullName(calleeFunc(info, call))] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if st, ok := env.state[obj]; ok {
						st.deferred = true
					}
					return
				}
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ended := deferredEndTargets(info, lit.Body)
		for obj, st := range env.state {
			if !usesIdentOf(info, lit.Body, map[types.Object]bool{obj: true}) {
				continue
			}
			if ended[obj] {
				st.deferred = true
			} else {
				st.escaped = true
			}
		}
		return
	}
	w.markEscapes(call, env)
}

// deferredEndTargets collects the objects whose End/Fail is called
// anywhere under n.
func deferredEndTargets(info *types.Info, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !spanEndFuncs[funcFullName(calleeFunc(info, call))] {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// markEscapes marks tracked spans used outside a borrow position as escaped.
// The receiver of a method call or field selection (sp.SetAttr, sp.Context,
// runSpan.Context() as a Start argument) is a borrow; returning, storing or
// passing the span itself transfers the End obligation.
func (w *spanWalker) markEscapes(n ast.Node, env *spanEnv) {
	if n == nil || len(env.state) == 0 {
		return
	}
	info := w.pass.Info
	borrowed := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				borrowed[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || borrowed[id] {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if st, ok := env.state[obj]; ok {
			st.escaped = true
		}
		return true
	})
}

// spanDisplayName renders the start call the way the source spells it.
func spanDisplayName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return exprString(call.Fun)
}

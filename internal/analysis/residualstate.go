package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedomd/internal/analysis/cfg"
)

// ResidualState enforces the error-feedback invariant of the wire codec
// (DESIGN.md §10): an Encoder's residual map only has meaning against an
// unbroken chain of reference states. When a connection clears its
// reference (`wcRef = codec.Ref{}`, or `ref = nil` for a bare *nn.Params)
// to force an absolute re-sync, the paired Encoder's residuals belong to the
// dead chain and must be dropped — by Encoder.Reset() or by swapping in a
// fresh NewEncoder — before the next EncodeRef or EncodeParams, or
// quantization error from the old epoch silently corrupts the first delta
// frames of the new one.
//
// The check is a cfg dataflow (DESIGN.md §13) over (reference, encoder)
// pairs. A reference is a codec.Ref or a *nn.Params. Pairs are discovered
// syntactically: a reference field cleared through a base whose struct has
// exactly one *codec.Encoder field pairs with that field (c.ref ↔ c.enc); a
// reference local cleared in a function with exactly one *codec.Encoder
// local pairs with it (wcRef ↔ wcEnc). A reset opens an obligation keyed by
// the encoder's access path; Reset() or a fresh-Encoder assignment closes it
// (before the reset counts too — negotiate-then-clear is clean); reaching
// either encode entry point or a return with the obligation open is
// reported at the reset.
var ResidualState = &Analyzer{
	Name: "residualstate",
	Doc:  "nilling a codec reference must clear the paired Encoder's error-feedback residual",
	Run:  runResidualState,
}

var (
	fnEncoderReset = pathCodec + ".Encoder.Reset"
	fnEncodeParams = pathCodec + ".Encoder.EncodeParams"
	fnEncodeRef    = pathCodec + ".Encoder.EncodeRef"
	fnNewEncoder   = pathCodec + ".NewEncoder"
)

func runResidualState(p *Pass) {
	if p.Pkg.Path() == pathCodec {
		// The codec implementation manages its own residual map.
		return
	}
	forEachFuncScope(p.Files, func(body *ast.BlockStmt) {
		analyzeResidualScope(p, body)
	})
}

// resFact is one open obligation: where the reference was nilled, and the
// source spellings used in the diagnostic.
type resFact struct {
	pos token.Pos
	ref string // the nilled reference expression
	enc string // the paired encoder expression (also the map key)
}

type resEnv struct {
	// pending maps encoder access path → the open clear obligation.
	pending map[string]resFact
	// cleared holds encoder access paths whose residual is known empty
	// (fresh NewEncoder or Reset) and not re-populated since.
	cleared map[string]bool
}

func (e *resEnv) clone() *resEnv {
	c := &resEnv{
		pending: make(map[string]resFact, len(e.pending)),
		cleared: make(map[string]bool, len(e.cleared)),
	}
	for k, v := range e.pending {
		c.pending[k] = v
	}
	for k := range e.cleared {
		c.cleared[k] = true
	}
	return c
}

func mergeResEnvs(a, b *resEnv) *resEnv {
	// pending is a may-property (union); cleared is a must-property
	// (intersection).
	for k, v := range b.pending {
		if _, ok := a.pending[k]; !ok {
			a.pending[k] = v
		}
	}
	for k := range a.cleared {
		if !b.cleared[k] {
			delete(a.cleared, k)
		}
	}
	return a
}

func resEnvEqual(a, b *resEnv) bool {
	if len(a.pending) != len(b.pending) || len(a.cleared) != len(b.cleared) {
		return false
	}
	for k, va := range a.pending {
		vb, ok := b.pending[k]
		if !ok || va != vb {
			return false
		}
	}
	for k := range a.cleared {
		if !b.cleared[k] {
			return false
		}
	}
	return true
}

type resWalker struct {
	pass *Pass
	// localEnc is the single *codec.Encoder local of the scope ("" when zero
	// or ambiguous), used to pair nilled *nn.Params locals.
	localEnc string
	reported map[token.Pos]bool
	report   bool
}

func analyzeResidualScope(p *Pass, body *ast.BlockStmt) {
	w := &resWalker{pass: p, localEnc: soleEncoderLocal(p.Info, body), reported: map[token.Pos]bool{}}
	g := cfg.Build(body, p.Info)
	in := cfg.Forward(g, cfg.Analysis[*resEnv]{
		Entry:    func() *resEnv { return &resEnv{pending: map[string]resFact{}, cleared: map[string]bool{}} },
		Clone:    (*resEnv).clone,
		Merge:    mergeResEnvs,
		Equal:    resEnvEqual,
		Transfer: w.transfer,
	})
	w.report = true
	for _, b := range g.Blocks {
		if env, ok := in[b]; ok {
			w.transfer(b, env.clone())
		}
	}
}

// soleEncoderLocal returns the name of the unique *codec.Encoder variable
// declared under body, or "" when there is none or more than one.
func soleEncoderLocal(info *types.Info, body *ast.BlockStmt) string {
	seen := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && isNamed(v.Type(), pathCodec, "Encoder") {
			seen[obj] = true
		}
		return true
	})
	if len(seen) != 1 {
		return ""
	}
	for obj := range seen {
		return obj.Name()
	}
	return ""
}

func (w *resWalker) reportFact(f resFact) {
	if !w.report || w.reported[f.pos] {
		return
	}
	w.reported[f.pos] = true
	w.pass.Reportf(f.pos, "%s is nilled for an absolute re-sync but %s keeps its error-feedback residual (call %s.Reset() or swap in a fresh Encoder before the next delta frame)", f.ref, f.enc, f.enc)
}

func (w *resWalker) transfer(b *cfg.Block, env *resEnv) *resEnv {
	for _, nd := range b.Nodes {
		switch n := nd.N.(type) {
		case *cfg.ScopeExit:
			// Obligations are keyed by encoder, which outlives inner scopes;
			// nothing to drop here.

		case *ast.AssignStmt:
			w.scanEncoderOps(n, env)
			w.handleAssign(n, env)

		case *ast.ReturnStmt:
			w.scanEncoderOps(n, env)
			for _, f := range env.pending {
				w.reportFact(f)
			}
			env.pending = map[string]resFact{}

		default:
			w.scanEncoderOps(nd.N, env)
		}
	}
	return env
}

// scanEncoderOps finds the residual-affecting encoder operations under n:
// Reset closes obligations (and marks the encoder clean), an encode with an
// open obligation is the bug biting — report and close so loops converge —
// and any encode re-populates the residual, ending a clean window.
func (w *resWalker) scanEncoderOps(n ast.Node, env *resEnv) {
	info := w.pass.Info
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := funcFullName(calleeFunc(info, call))
		if name != fnEncoderReset && name != fnEncodeParams && name != fnEncodeRef {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !comparableOperand(sel.X) {
			return true
		}
		key := exprString(sel.X)
		if name == fnEncoderReset {
			delete(env.pending, key)
			env.cleared[key] = true
			return true
		}
		if f, ok := env.pending[key]; ok {
			w.reportFact(f)
			delete(env.pending, key)
		}
		delete(env.cleared, key)
		return true
	})
}

// handleAssign opens an obligation for a reset (isRefReset) of a paired
// reference and closes obligations for `enc = codec.NewEncoder(...)` (or
// any overwrite of the encoder variable — the old residual map is
// unreachable).
func (w *resWalker) handleAssign(s *ast.AssignStmt, env *resEnv) {
	info := w.pass.Info
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		l = ast.Unparen(l)
		r := ast.Unparen(s.Rhs[i])
		lt := info.Types[l].Type
		if lt == nil {
			// Defining idents of := statements carry their type on the object,
			// not in info.Types.
			if id, ok := l.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		if lt == nil {
			continue
		}
		if isNamed(lt, pathCodec, "Encoder") && comparableOperand(l) {
			key := exprString(l)
			delete(env.pending, key)
			if call, ok := r.(*ast.CallExpr); ok && funcFullName(calleeFunc(info, call)) == fnNewEncoder {
				env.cleared[key] = true
			} else {
				delete(env.cleared, key)
			}
			continue
		}
		if !isRefReset(info, lt, r) {
			continue
		}
		encKey := w.pairedEncoder(l)
		if encKey == "" || env.cleared[encKey] {
			continue
		}
		if f, ok := env.pending[encKey]; ok {
			// Second reset around a loop with the obligation still open: the
			// first one was never cleared.
			w.reportFact(f)
			continue
		}
		env.pending[encKey] = resFact{pos: s.Pos(), ref: exprString(l), enc: encKey}
	}
}

// pairedEncoder maps a nilled reference expression to its encoder's access
// path: the unique *codec.Encoder sibling field for base.field references,
// the unique *codec.Encoder local for plain locals.
func (w *resWalker) pairedEncoder(ref ast.Expr) string {
	info := w.pass.Info
	switch l := ref.(type) {
	case *ast.SelectorExpr:
		if !comparableOperand(l.X) {
			return ""
		}
		bt := info.Types[l.X].Type
		if bt == nil {
			return ""
		}
		if p, ok := bt.Underlying().(*types.Pointer); ok {
			bt = p.Elem()
		}
		st, ok := bt.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		encField := ""
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isNamed(f.Type(), pathCodec, "Encoder") {
				if encField != "" {
					return "" // ambiguous: two encoder fields
				}
				encField = f.Name()
			}
		}
		if encField == "" {
			return ""
		}
		return exprString(l.X) + "." + encField
	case *ast.Ident:
		return w.localEnc
	}
	return ""
}

// isRefReset reports whether assigning r to a location of type lt drops a
// codec reference: the zero codec.Ref literal, or nil into a *nn.Params.
func isRefReset(info *types.Info, lt types.Type, r ast.Expr) bool {
	switch {
	case isNamed(lt, pathCodec, "Ref"):
		lit, ok := r.(*ast.CompositeLit)
		return ok && len(lit.Elts) == 0
	case isNamed(lt, pathNn, "Params"):
		return isNilExpr(info, r)
	}
	return false
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

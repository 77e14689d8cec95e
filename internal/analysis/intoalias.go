package analysis

import (
	"go/ast"
)

// IntoAlias flags calls to the fused destination-writing kernels where the
// destination expression is syntactically identical to one of the source
// expressions. Every kernel listed in noAliasKernels documents that its
// output must not alias its inputs (the row-blocked matmul loops read inputs
// while writing out, so aliasing corrupts the result silently); ApplyInto is
// deliberately absent because its contract allows out == a.
var IntoAlias = &Analyzer{
	Name: "intoalias",
	Doc:  "destination of a *Into/*AddInto/AXPY kernel must not alias a source",
	Run:  runIntoAlias,
}

// recvIdx marks the method receiver in a kernelSpec position.
const recvIdx = -1

// kernelSpec records which call positions are the destination and the
// no-alias sources of one kernel. Positions are argument indices, or recvIdx
// for the method receiver.
type kernelSpec struct {
	dst  int
	srcs []int
}

var noAliasKernels = map[string]kernelSpec{
	// matmul.go: out is always the first argument, both inputs are read
	// concurrently with the write.
	pathMat + ".MatMulInto":      {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MatMulT1Into":    {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MatMulT1AddInto": {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MatMulT2Into":    {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MatMulT2AddInto": {dst: 0, srcs: []int{1, 2}},
	// ops.go *Into family ("out must not alias the inputs unless noted").
	pathMat + ".AddInto":            {dst: 0, srcs: []int{1, 2}},
	pathMat + ".SubInto":            {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MulElemInto":        {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MulElemAddInto":     {dst: 0, srcs: []int{1, 2}},
	pathMat + ".ScaleInto":          {dst: 0, srcs: []int{2}},
	pathMat + ".AddRowVecInto":      {dst: 0, srcs: []int{1, 2}},
	pathMat + ".MeanRowsInto":       {dst: 0, srcs: []int{1}},
	pathMat + ".SumRowsAXPY":        {dst: 0, srcs: []int{2}},
	pathMat + ".CentralMomentsInto": {dst: 0, srcs: []int{1, 2}},
	// matmul.go slice-level AXPY micro kernel: dst += alpha·src.
	pathMat + ".AXPYRow": {dst: 0, srcs: []int{2}},
	// In-place BLAS-style updates: the receiver is the destination.
	pathMat + ".Dense.AXPY":             {dst: recvIdx, srcs: []int{1}},
	pathMat + ".Dense.AXPYRowBroadcast": {dst: recvIdx, srcs: []int{1}},
	// SelectRowsInto gathers rows of the receiver into out.
	pathMat + ".Dense.SelectRowsInto": {dst: 0, srcs: []int{recvIdx}},
	// sparse SpMM kernels: out must not alias the dense operand.
	pathSparse + ".CSR.MulDenseInto":     {dst: 0, srcs: []int{1}},
	pathSparse + ".CSR.TMulDenseInto":    {dst: 0, srcs: []int{1}},
	pathSparse + ".CSR.TMulDenseAddInto": {dst: 0, srcs: []int{1}},
}

func runIntoAlias(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			spec, ok := noAliasKernels[funcFullName(calleeFunc(p.Info, call))]
			if !ok {
				return true
			}
			dst := kernelOperand(call, spec.dst)
			if dst == nil || !comparableOperand(dst) {
				return true
			}
			dstStr := exprString(dst)
			for _, si := range spec.srcs {
				src := kernelOperand(call, si)
				if src == nil || !comparableOperand(src) {
					continue
				}
				if exprString(src) == dstStr {
					p.Reportf(call.Pos(), "%s is both destination and source of %s, which forbids aliasing", dstStr, kernelDisplayName(call))
					break
				}
			}
			return true
		})
	}
}

// kernelOperand extracts the expression at a kernelSpec position.
func kernelOperand(call *ast.CallExpr, idx int) ast.Expr {
	if idx == recvIdx {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		return ast.Unparen(sel.X)
	}
	if idx >= len(call.Args) {
		return nil
	}
	return ast.Unparen(call.Args[idx])
}

// comparableOperand rejects expressions whose textual equality says nothing
// about value identity (two calls to the same function yield two buffers).
func comparableOperand(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isCall := n.(*ast.CallExpr); isCall {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// kernelDisplayName renders the call target the way the source spells it.
func kernelDisplayName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return exprString(call.Fun)
}

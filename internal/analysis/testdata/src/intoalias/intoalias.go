// Package intoalias exercises the intoalias analyzer: syntactically aliased
// destination/source operands of the fused kernels, against the calls the
// contracts allow.
package intoalias

import (
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

func matKernels(out, a, b *mat.Dense) {
	mat.MatMulInto(out, out, b) // want `out is both destination and source of MatMulInto`
	mat.MatMulInto(out, a, b)
	mat.AddInto(out, a, out) // want `out is both destination and source of AddInto`
	mat.AddInto(out, a, b)
	mat.MatMulT1AddInto(out, b, out) // want `out is both destination and source of MatMulT1AddInto`
	out.AXPY(2, out)                 // want `out is both destination and source of AXPY`
	out.AXPY(2, b)
	a.SelectRowsInto(a, []int{0}) // want `a is both destination and source of SelectRowsInto`
	a.SelectRowsInto(out, []int{0})
	mat.ScaleInto(out, 2, a)
}

func sliceKernels(dst, src []float64) {
	mat.AXPYRow(dst, 2, dst) // want `dst is both destination and source of AXPYRow`
	mat.AXPYRow(dst, 2, src)
}

func sparseKernels(s *sparse.CSR, out, x *mat.Dense) {
	s.MulDenseInto(out, out) // want `out is both destination and source of MulDenseInto`
	s.MulDenseInto(out, x)
	s.TMulDenseAddInto(out, out) // want `out is both destination and source of TMulDenseAddInto`
	s.TMulDenseAddInto(out, x)
}

type wrap struct{ g *mat.Dense }

func fieldPaths(w *wrap, b *mat.Dense) {
	mat.SubInto(w.g, w.g, b) // want `w.g is both destination and source of SubInto`
	mat.SubInto(w.g, b, b)   // sources may alias each other: both are read-only
}

func freshCalls(a, b *mat.Dense) {
	mat.AddInto(a.Clone(), a.Clone(), b) // two distinct clones: textual equality proves nothing
}

// Package ignore exercises the //fedomdvet:ignore suppression layer: a
// reasoned directive silences its line (or the next, in own-line form), and
// a reasonless directive is itself a diagnostic.
package ignore

import "fedomd/internal/mat"

func suppressed(a, b *mat.Dense) {
	mat.AddInto(a, a, b) //fedomdvet:ignore fixture exercises the documented self-add suppression
	//fedomdvet:ignore own-line form covers the next line
	mat.MulElemAddInto(a, a, b)
	mat.SubInto(a, a, b) //fedomdvet:ignore // want `without a reason` want `a is both destination and source of SubInto`
}

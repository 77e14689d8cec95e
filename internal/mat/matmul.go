package mat

import (
	"fmt"
)

// Dense multiplication is built from one cache-blocked, register-tiled kernel
// family. Loops are tiled so the working set of each level fits cache — a
// kcBlock-deep panel of b (kcBlock×jcBlock) stays L2-resident while 4-row
// strips of a stream through L1 — and the innermost loop accumulates a 4×4
// output tile in sixteen locals instead of streaming one row of out per k
// (the seed axpyRow kernel), cutting per-FLOP memory traffic roughly 4×.
// Work above parallelThreshold is sharded over output rows through the
// persistent worker pool (workers.go).
//
// On amd64 with AVX2+FMA (detected at startup, simd_amd64.go) the interior
// tiles run a 4×8 assembly micro-kernel; the pure-Go tile and edge kernels
// cover the remainder and every other platform.
//
// Determinism: every output element is accumulated with the same loop
// structure — ascending k within each fixed-size k-block, blocks folded into
// out in ascending block order — regardless of which chunk or worker
// computed it, and parallel row chunks are always microDim-aligned, so which
// kernel (SIMD vs scalar edge) computes a given cell is a pure function of
// the matrix shape, never of the worker count. Results are therefore
// bit-identical across worker counts; the kernel determinism tests pin 1, 2,
// NumCPU and NumCPU+3 against each other.

// parallelThreshold is the amount of scalar multiply-adds below which the
// dense kernels stay serial; dispatching tiny products costs more than it
// saves.
const parallelThreshold = 1 << 16

// Blocking parameters (see DESIGN.md §12). kcBlock×jcBlock×8 bytes = 512 KiB
// keeps the b panel L2-resident; a 4-row a strip of one k-block is 8 KiB (L1).
const (
	microDim = 4   // scalar register tile edge: 4×4 accumulators in locals
	simdCols = 8   // SIMD tile width: 4×8 AVX2 micro-kernel (two YMMs wide)
	kcBlock  = 256 // k (inner dimension) block depth
	jcBlock  = 256 // j (output column) block width; multiple of simdCols
)

// parGrain picks how many units (microDim-row tiles) one pool chunk should
// cover so a chunk amortises its claim: at least ~parallelThreshold
// multiply-adds per chunk.
func parGrain(unitWork int) int {
	if unitWork <= 0 {
		return 1
	}
	g := (parallelThreshold + unitWork - 1) / unitWork
	if g < 1 {
		g = 1
	}
	return g
}

// parallelTiles shards [0, rows) over the worker pool in microDim-aligned
// row chunks (the determinism contract requires chunk boundaries that are a
// multiple of the tile height) and invokes body on each row range. tileWork
// is the multiply-add count of one microDim-row tile.
func parallelTiles(rows, tileWork int, body func(lo, hi int)) {
	nt := (rows + microDim - 1) / microDim
	ParallelFor(nt, parGrain(tileWork), func(tlo, thi int) {
		lo, hi := tlo*microDim, thi*microDim
		if hi > rows {
			hi = rows
		}
		body(lo, hi)
	})
}

// MatMul returns a·b using the blocked parallel kernel. It panics if
// a.Cols() != b.Rows().
func MatMul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a·b into caller-owned storage. out must be
// a.Rows()×b.Cols() and must not alias a or b.
func MatMulInto(out, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	mustOutShape(out, a.rows, b.cols, "MatMulInto")
	matMulDispatch(out, a, b, false)
}

func matMulDispatch(out, a, b *Dense, accum bool) {
	work := a.rows * a.cols * b.cols
	if work < parallelThreshold {
		matMulBlocked(out, a, b, 0, a.rows, accum)
		return
	}
	parallelTiles(a.rows, 2*microDim*a.cols*b.cols, func(lo, hi int) {
		matMulBlocked(out, a, b, lo, hi, accum)
	})
}

// matMulBlocked computes rows [lo, hi) of out = (accum ? out : 0) + a·b with
// k/j cache blocking and the 4×4 register micro-kernel. The zeroing of out is
// folded into the first k-block (it writes instead of accumulating), so the
// non-accumulating path traverses out no extra time.
func matMulBlocked(out, a, b *Dense, lo, hi int, accum bool) {
	n, p := a.cols, b.cols
	if n == 0 {
		if !accum {
			zeroRows(out, lo, hi)
		}
		return
	}
	od, ad, bd := out.data, a.data, b.data
	for k0 := 0; k0 < n; k0 += kcBlock {
		k1 := min(k0+kcBlock, n)
		acc := accum || k0 > 0
		kl := k1 - k0
		for j0 := 0; j0 < p; j0 += jcBlock {
			j1 := min(j0+jcBlock, p)
			i := lo
			for ; i+microDim <= hi; i += microDim {
				j := j0
				if useAVX {
					for ; j+simdCols <= j1; j += simdCols {
						mmAVX4x8(&od[i*p+j], &ad[i*n+k0], &bd[k0*p+j], p, n, p, kl, acc)
					}
				}
				for ; j+microDim <= j1; j += microDim {
					mm4x4(od, ad, bd, n, p, i, j, k0, k1, acc)
				}
				if j < j1 {
					mmEdge(od, ad, bd, n, p, i, i+microDim, j, j1, k0, k1, acc)
				}
			}
			if i < hi {
				mmEdge(od, ad, bd, n, p, i, hi, j0, j1, k0, k1, acc)
			}
		}
	}
}

// mm4x4 accumulates the 4×4 tile out[i:i+4, j:j+4] (+)= a[i:i+4, k0:k1] ·
// b[k0:k1, j:j+4] in sixteen register-resident locals.
func mm4x4(od, ad, bd []float64, n, p, i, j, k0, k1 int, accum bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	a0 := ad[i*n+k0 : i*n+k1]
	a1 := ad[(i+1)*n+k0 : (i+1)*n+k1]
	a2 := ad[(i+2)*n+k0 : (i+2)*n+k1]
	a3 := ad[(i+3)*n+k0 : (i+3)*n+k1]
	bi := k0*p + j
	for t := range a0 {
		bk := bd[bi : bi+4 : bi+4]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		av := a0[t]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[t]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[t]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[t]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		bi += p
	}
	o0 := od[i*p+j : i*p+j+4 : i*p+j+4]
	o1 := od[(i+1)*p+j : (i+1)*p+j+4 : (i+1)*p+j+4]
	o2 := od[(i+2)*p+j : (i+2)*p+j+4 : (i+2)*p+j+4]
	o3 := od[(i+3)*p+j : (i+3)*p+j+4 : (i+3)*p+j+4]
	if accum {
		o0[0] += c00
		o0[1] += c01
		o0[2] += c02
		o0[3] += c03
		o1[0] += c10
		o1[1] += c11
		o1[2] += c12
		o1[3] += c13
		o2[0] += c20
		o2[1] += c21
		o2[2] += c22
		o2[3] += c23
		o3[0] += c30
		o3[1] += c31
		o3[2] += c32
		o3[3] += c33
	} else {
		o0[0] = c00
		o0[1] = c01
		o0[2] = c02
		o0[3] = c03
		o1[0] = c10
		o1[1] = c11
		o1[2] = c12
		o1[3] = c13
		o2[0] = c20
		o2[1] = c21
		o2[2] = c22
		o2[3] = c23
		o3[0] = c30
		o3[1] = c31
		o3[2] = c32
		o3[3] = c33
	}
}

// mmEdge handles the ragged tile remainders with the same per-element k
// order as mm4x4, so an element's value never depends on which kernel
// computed it.
func mmEdge(od, ad, bd []float64, n, p, i0, i1, j0, j1, k0, k1 int, accum bool) {
	for i := i0; i < i1; i++ {
		arow := ad[i*n+k0 : i*n+k1]
		orow := od[i*p : (i+1)*p]
		for j := j0; j < j1; j++ {
			var c float64
			bi := k0*p + j
			for _, av := range arow {
				c += av * bd[bi]
				bi += p
			}
			if accum {
				orow[j] += c
			} else {
				orow[j] = c
			}
		}
	}
}

func zeroRows(out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// SIMDEnabled reports whether the dense kernels run the AVX2+FMA micro
// kernels on this machine (fixed for the process lifetime). Benchmarks
// record it so artefacts from different hosts compare honestly.
func SIMDEnabled() bool { return useAVX }

// MatMulSerial is the seed single-goroutine ikj reference kernel, kept
// exported as the baseline the blocked kernels are tested against.
func MatMulSerial(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMulSerial inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	matMulIKJ(out, a, b, 0, a.rows, false)
	return out
}

// matMulIKJ is the seed kernel: one output row at a time, streaming rows of b
// with axpyRow. Kept as the reference implementation and ablation baseline.
func matMulIKJ(out, a, b *Dense, lo, hi int, accum bool) {
	n, p := a.cols, b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*n : (i+1)*n]
		orow := out.data[i*p : (i+1)*p]
		if !accum {
			for j := range orow {
				orow[j] = 0
			}
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*p : (k+1)*p]
			axpyRow(orow, av, brow)
		}
	}
}

// AXPYRow computes dst += alpha·src over two equal-length slices. dst and
// src must not overlap. It is the building block the sparse SpMM kernels
// share with the dense ops; the AVX path (amd64) is bit-identical to the
// scalar loop by construction, so results never depend on the dispatch.
func AXPYRow(dst []float64, alpha float64, src []float64) {
	axpyRow(dst, alpha, src)
}

// axpyRow computes dst += alpha*src with 4-way unrolling (AVX2 when
// available).
func axpyRow(dst []float64, alpha float64, src []float64) {
	n := len(dst)
	if useAVX && n >= 8 {
		q := n &^ 3
		axpyAVX(&dst[0], &src[0], alpha, q)
		for i := q; i < n; i++ {
			dst[i] += alpha * src[i]
		}
		return
	}
	i := 0
	for ; i+3 < n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// MatMulT1 returns aᵀ·b without materialising the transpose.
func MatMulT1(a, b *Dense) *Dense {
	out := New(a.cols, b.cols)
	MatMulT1AddInto(out, a, b)
	return out
}

// MatMulT1Into computes out = aᵀ·b into caller-owned storage. out must be
// a.Cols()×b.Cols() and must not alias a or b. The zeroing of out is folded
// into the first k-block of the kernel (no separate Zero traversal).
func MatMulT1Into(out, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MatMulT1Into dimension mismatch %dx%d ᵀ· %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	mustOutShape(out, a.cols, b.cols, "MatMulT1Into")
	matMulT1Dispatch(out, a, b, false)
}

// MatMulT1AddInto computes out += aᵀ·b (fused gradient accumulation — the
// ∂L/∂W term of a dense layer lands directly in the gradient buffer).
func MatMulT1AddInto(out, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MatMulT1AddInto dimension mismatch %dx%d ᵀ· %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	mustOutShape(out, a.cols, b.cols, "MatMulT1AddInto")
	matMulT1Dispatch(out, a, b, true)
}

// matMulT1Dispatch shards out = (accum ? out : 0) + aᵀ·b over columns of a
// (= rows of out), so concurrent writes stay disjoint.
func matMulT1Dispatch(out, a, b *Dense, accum bool) {
	work := a.rows * a.cols * b.cols
	if work < parallelThreshold {
		matMulT1Blocked(out, a, b, 0, a.cols, accum)
		return
	}
	parallelTiles(a.cols, 2*microDim*a.rows*b.cols, func(lo, hi int) {
		matMulT1Blocked(out, a, b, lo, hi, accum)
	})
}

// matMulT1Blocked computes rows [lo, hi) of out (+)= aᵀ·b. The k dimension
// is a's rows; a 4-wide column strip a[k0:k1, i:i+4] is read with unit
// stride inside each k row, so the micro-kernel is mm4x4 with the a index
// transposed.
func matMulT1Blocked(out, a, b *Dense, lo, hi int, accum bool) {
	n, p := a.cols, b.cols
	if a.rows == 0 {
		if !accum {
			zeroRows(out, lo, hi)
		}
		return
	}
	od, ad, bd := out.data, a.data, b.data
	for k0 := 0; k0 < a.rows; k0 += kcBlock {
		k1 := min(k0+kcBlock, a.rows)
		acc := accum || k0 > 0
		kl := k1 - k0
		for j0 := 0; j0 < p; j0 += jcBlock {
			j1 := min(j0+jcBlock, p)
			i := lo
			for ; i+microDim <= hi; i += microDim {
				j := j0
				if useAVX {
					for ; j+simdCols <= j1; j += simdCols {
						mmT1AVX4x8(&od[i*p+j], &ad[k0*n+i], &bd[k0*p+j], p, n, p, kl, acc)
					}
				}
				for ; j+microDim <= j1; j += microDim {
					mmT1x4x4(od, ad, bd, n, p, i, j, k0, k1, acc)
				}
				if j < j1 {
					mmT1Edge(od, ad, bd, n, p, i, i+microDim, j, j1, k0, k1, acc)
				}
			}
			if i < hi {
				mmT1Edge(od, ad, bd, n, p, i, hi, j0, j1, k0, k1, acc)
			}
		}
	}
}

// mmT1x4x4 accumulates out[i:i+4, j:j+4] (+)= a[k0:k1, i:i+4]ᵀ · b[k0:k1,
// j:j+4]: per k it loads four contiguous a values and four contiguous b
// values into sixteen accumulators.
func mmT1x4x4(od, ad, bd []float64, n, p, i, j, k0, k1 int, accum bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ai := k0*n + i
	bi := k0*p + j
	for k := k0; k < k1; k++ {
		ak := ad[ai : ai+4 : ai+4]
		bk := bd[bi : bi+4 : bi+4]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		av := ak[0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = ak[1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = ak[2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = ak[3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		ai += n
		bi += p
	}
	o0 := od[i*p+j : i*p+j+4 : i*p+j+4]
	o1 := od[(i+1)*p+j : (i+1)*p+j+4 : (i+1)*p+j+4]
	o2 := od[(i+2)*p+j : (i+2)*p+j+4 : (i+2)*p+j+4]
	o3 := od[(i+3)*p+j : (i+3)*p+j+4 : (i+3)*p+j+4]
	if accum {
		o0[0] += c00
		o0[1] += c01
		o0[2] += c02
		o0[3] += c03
		o1[0] += c10
		o1[1] += c11
		o1[2] += c12
		o1[3] += c13
		o2[0] += c20
		o2[1] += c21
		o2[2] += c22
		o2[3] += c23
		o3[0] += c30
		o3[1] += c31
		o3[2] += c32
		o3[3] += c33
	} else {
		o0[0] = c00
		o0[1] = c01
		o0[2] = c02
		o0[3] = c03
		o1[0] = c10
		o1[1] = c11
		o1[2] = c12
		o1[3] = c13
		o2[0] = c20
		o2[1] = c21
		o2[2] = c22
		o2[3] = c23
		o3[0] = c30
		o3[1] = c31
		o3[2] = c32
		o3[3] = c33
	}
}

// mmT1Edge handles ragged T1 tiles with the same per-element k order as
// mmT1x4x4.
func mmT1Edge(od, ad, bd []float64, n, p, i0, i1, j0, j1, k0, k1 int, accum bool) {
	for i := i0; i < i1; i++ {
		orow := od[i*p : (i+1)*p]
		for j := j0; j < j1; j++ {
			var c float64
			ai := k0*n + i
			bi := k0*p + j
			for k := k0; k < k1; k++ {
				c += ad[ai] * bd[bi]
				ai += n
				bi += p
			}
			if accum {
				orow[j] += c
			} else {
				orow[j] = c
			}
		}
	}
}

// MatMulT2 returns a·bᵀ without materialising the transpose.
func MatMulT2(a, b *Dense) *Dense {
	out := New(a.rows, b.rows)
	matMulT2Checked(out, a, b, false, "MatMulT2")
	return out
}

// MatMulT2Into computes out = a·bᵀ into caller-owned storage. out must be
// a.Rows()×b.Rows() and must not alias a or b.
func MatMulT2Into(out, a, b *Dense) {
	matMulT2Checked(out, a, b, false, "MatMulT2Into")
}

// MatMulT2AddInto computes out += a·bᵀ (fused gradient accumulation — the
// ∂L/∂X term of a dense layer lands directly in the gradient buffer).
func MatMulT2AddInto(out, a, b *Dense) {
	matMulT2Checked(out, a, b, true, "MatMulT2AddInto")
}

func matMulT2Checked(out, a, b *Dense, accum bool, op string) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d · %dx%dᵀ", op, a.rows, a.cols, b.rows, b.cols))
	}
	mustOutShape(out, a.rows, b.rows, op)
	work := a.rows * a.cols * b.rows
	if work < parallelThreshold {
		matMulT2Blocked(out, a, b, 0, a.rows, accum)
		return
	}
	parallelTiles(a.rows, 2*microDim*a.cols*b.rows, func(lo, hi int) {
		matMulT2Blocked(out, a, b, lo, hi, accum)
	})
}

// matMulT2Blocked computes rows [lo, hi) of out (+)= a·bᵀ: a 4×4 tile of
// inner products accumulated k-blocked, with both operands read row-major.
func matMulT2Blocked(out, a, b *Dense, lo, hi int, accum bool) {
	n, p := a.cols, b.rows
	if n == 0 {
		if !accum {
			zeroRows(out, lo, hi)
		}
		return
	}
	od, ad, bd := out.data, a.data, b.data
	for k0 := 0; k0 < n; k0 += kcBlock {
		k1 := min(k0+kcBlock, n)
		acc := accum || k0 > 0
		kl := k1 - k0
		i := lo
		for ; i+microDim <= hi; i += microDim {
			j := 0
			if useAVX {
				for ; j+microDim <= p; j += microDim {
					mmT2AVX2x4(&od[i*p+j], &ad[i*n+k0], &bd[j*n+k0], p, n, n, kl, acc)
					mmT2AVX2x4(&od[(i+2)*p+j], &ad[(i+2)*n+k0], &bd[j*n+k0], p, n, n, kl, acc)
				}
			}
			for ; j+microDim <= p; j += microDim {
				mmT2x4x4(od, ad, bd, n, p, i, j, k0, k1, acc)
			}
			if j < p {
				mmT2Edge(od, ad, bd, n, p, i, i+microDim, j, p, k0, k1, acc)
			}
		}
		if i < hi {
			mmT2Edge(od, ad, bd, n, p, i, hi, 0, p, k0, k1, acc)
		}
	}
}

// mmT2x4x4 accumulates out[i:i+4, j:j+4] (+)= a[i:i+4, k0:k1] · b[j:j+4,
// k0:k1]ᵀ — sixteen simultaneous dot products over row-major operands.
func mmT2x4x4(od, ad, bd []float64, n, p, i, j, k0, k1 int, accum bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	a0 := ad[i*n+k0 : i*n+k1]
	a1 := ad[(i+1)*n+k0 : (i+1)*n+k1]
	a2 := ad[(i+2)*n+k0 : (i+2)*n+k1]
	a3 := ad[(i+3)*n+k0 : (i+3)*n+k1]
	b0 := bd[j*n+k0 : j*n+k1]
	b1 := bd[(j+1)*n+k0 : (j+1)*n+k1]
	b2 := bd[(j+2)*n+k0 : (j+2)*n+k1]
	b3 := bd[(j+3)*n+k0 : (j+3)*n+k1]
	for t := range a0 {
		bv0, bv1, bv2, bv3 := b0[t], b1[t], b2[t], b3[t]
		av := a0[t]
		c00 += av * bv0
		c01 += av * bv1
		c02 += av * bv2
		c03 += av * bv3
		av = a1[t]
		c10 += av * bv0
		c11 += av * bv1
		c12 += av * bv2
		c13 += av * bv3
		av = a2[t]
		c20 += av * bv0
		c21 += av * bv1
		c22 += av * bv2
		c23 += av * bv3
		av = a3[t]
		c30 += av * bv0
		c31 += av * bv1
		c32 += av * bv2
		c33 += av * bv3
	}
	o0 := od[i*p+j : i*p+j+4 : i*p+j+4]
	o1 := od[(i+1)*p+j : (i+1)*p+j+4 : (i+1)*p+j+4]
	o2 := od[(i+2)*p+j : (i+2)*p+j+4 : (i+2)*p+j+4]
	o3 := od[(i+3)*p+j : (i+3)*p+j+4 : (i+3)*p+j+4]
	if accum {
		o0[0] += c00
		o0[1] += c01
		o0[2] += c02
		o0[3] += c03
		o1[0] += c10
		o1[1] += c11
		o1[2] += c12
		o1[3] += c13
		o2[0] += c20
		o2[1] += c21
		o2[2] += c22
		o2[3] += c23
		o3[0] += c30
		o3[1] += c31
		o3[2] += c32
		o3[3] += c33
	} else {
		o0[0] = c00
		o0[1] = c01
		o0[2] = c02
		o0[3] = c03
		o1[0] = c10
		o1[1] = c11
		o1[2] = c12
		o1[3] = c13
		o2[0] = c20
		o2[1] = c21
		o2[2] = c22
		o2[3] = c23
		o3[0] = c30
		o3[1] = c31
		o3[2] = c32
		o3[3] = c33
	}
}

// mmT2Edge handles ragged T2 tiles with the same per-element k order as
// mmT2x4x4.
func mmT2Edge(od, ad, bd []float64, n, p, i0, i1, j0, j1, k0, k1 int, accum bool) {
	for i := i0; i < i1; i++ {
		arow := ad[i*n+k0 : i*n+k1]
		orow := od[i*p : (i+1)*p]
		for j := j0; j < j1; j++ {
			brow := bd[j*n+k0 : j*n+k1]
			var c float64
			for t, av := range arow {
				c += av * brow[t]
			}
			if accum {
				orow[j] += c
			} else {
				orow[j] = c
			}
		}
	}
}

func mustOutShape(out *Dense, r, c int, op string) {
	if out.rows != r || out.cols != c {
		panic(fmt.Sprintf("mat: %s output shape %dx%d, want %dx%d", op, out.rows, out.cols, r, c))
	}
}

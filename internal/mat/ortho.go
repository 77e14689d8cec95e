package mat

import (
	"errors"
	"math"
)

// NewtonSchulz orthogonalises a square matrix by the Newton–Schulz iteration
//
//	W ← 1.5·W − 0.5·W·Wᵀ·W
//
// which converges to the orthogonal polar factor when every singular value of
// the input lies in (0, √3). The input is pre-scaled by a spectral-norm
// estimate (the paper's spectral bounding normalisation, §4.3) so the largest
// singular value is ≈1; the iteration then runs until the orthogonality
// defect drops below 1e-9 or maxIters is reached. This is the "Newton
// iteration" the paper inherits from Ortho-GCN [11].
//
// Returns an error for non-square or (numerically) zero inputs.
func NewtonSchulz(w *Dense, maxIters int) (*Dense, error) {
	if w.rows != w.cols {
		return nil, errors.New("mat: NewtonSchulz requires a square matrix")
	}
	norm := spectralNormEstimate(w)
	if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nil, errors.New("mat: NewtonSchulz on zero or non-finite matrix")
	}
	// Slight shrink keeps the largest singular value strictly below √3 even
	// when the power-iteration estimate is a little low.
	y := Scale(1/(norm*1.01), w)
	if maxIters < 30 {
		maxIters = 30
	}
	for k := 0; k < maxIters; k++ {
		yyt := MatMulT2(y, y)   // Y·Yᵀ
		cubic := MatMul(yyt, y) // Y·Yᵀ·Y
		next := Scale(1.5, y)   // 1.5·Y
		next.AXPY(-0.5, cubic)  // − 0.5·Y·Yᵀ·Y
		y = next
		if OrthoError(y) < 1e-9 {
			break
		}
	}
	return y, nil
}

// SpectralNorm approximates the spectral norm ‖w‖₂ (largest singular value)
// with deterministic power iteration on wᵀw.
func SpectralNorm(w *Dense) float64 { return spectralNormEstimate(w) }

// spectralNormEstimate approximates ‖w‖₂ with a few rounds of power iteration
// on wᵀw, seeded deterministically. The iteration vectors ping-pong through
// two pooled buffers: the estimate runs once per OrthoConv weight per forward
// pass, so it must not churn.
func spectralNormEstimate(w *Dense) (sigma float64) {
	n := w.cols
	if n == 0 {
		return 0
	}
	v := GetDense(n, 1)
	wv := GetDense(w.rows, 1)
	next := GetDense(n, 1)
	defer func() {
		PutDense(v)
		PutDense(wv)
		PutDense(next)
	}()
	for i := range v.data {
		v.data[i] = 1 / math.Sqrt(float64(n))
	}
	for k := 0; k < 20; k++ {
		MatMulInto(wv, w, v)      // n×1
		MatMulT1Into(next, w, wv) // n×1
		nv := FrobNorm(next)
		if nv == 0 {
			return 0
		}
		next.ScaleInPlace(1 / nv)
		v, next = next, v
		sigma = math.Sqrt(nv)
	}
	return sigma
}

// OrthoError returns ‖W·Wᵀ − I‖_F, the orthogonality defect that the paper's
// reconstruction loss (eq. 6) drives toward zero.
func OrthoError(w *Dense) float64 {
	if w.rows == 0 {
		return 0
	}
	g := MatMulT2(w, w)
	for i := 0; i < g.rows; i++ {
		g.data[i*g.cols+i] -= 1
	}
	return FrobNorm(g)
}

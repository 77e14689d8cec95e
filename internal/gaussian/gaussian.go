// Package gaussian implements the distributional machinery of paper §4.3:
// fitting a multivariate Gaussian N(μ, Σ) to hidden features (eq. 4), its
// eigendecomposition Σ = UΛUᵀ (the basis of eq. 5's factor Q = UΛ^{1/2}),
// orthogonal feature projection through the eigenbasis U, and log-density
// evaluation.
package gaussian

import (
	"errors"
	"fmt"
	"math"

	"fedomd/internal/mat"
)

// Gaussian is a multivariate normal distribution over R^d.
type Gaussian struct {
	Mean *mat.Dense // 1×d
	Cov  *mat.Dense // d×d, symmetric PSD

	// Cached eigendecomposition, built lazily by ensureFactors.
	basis    *mat.Dense // U, eigenvectors of Σ in columns
	eigvals  []float64  // Λ diagonal, descending
	logDet   float64    // log det Σ (pseudo, over positive eigenvalues)
	factored bool
}

// Fit estimates a Gaussian from the rows of x with the 1/n moment convention
// (matching eq. 10/11). A ridge of eps is added to the covariance diagonal
// so the density exists even for degenerate samples; pass 0 for none.
func Fit(x *mat.Dense, eps float64) (*Gaussian, error) {
	if x.Rows() == 0 {
		return nil, errors.New("gaussian: cannot fit to zero samples")
	}
	if eps < 0 {
		return nil, fmt.Errorf("gaussian: negative ridge %v", eps)
	}
	cov := mat.Covariance(x)
	for i := 0; i < cov.Rows(); i++ {
		cov.Set(i, i, cov.At(i, i)+eps)
	}
	return &Gaussian{Mean: mat.MeanRows(x), Cov: cov}, nil
}

// Dim returns the dimensionality d.
func (g *Gaussian) Dim() int { return g.Mean.Cols() }

// ensureFactors computes the eigendecomposition once.
func (g *Gaussian) ensureFactors() error {
	if g.factored {
		return nil
	}
	vals, u, err := mat.EigSym(g.Cov)
	if err != nil {
		return err
	}
	logDet := 0.0
	for _, l := range vals {
		if l > 0 {
			logDet += math.Log(l)
		}
	}
	g.basis = u
	g.eigvals = vals
	g.logDet = logDet
	g.factored = true
	return nil
}

// Project orthogonally projects feature rows into the eigenbasis of Σ —
// the "feature vector X_i can be orthogonally projected by U" step of §4.3.
// Rows are centred on the mean first.
func (g *Gaussian) Project(x *mat.Dense) (*mat.Dense, error) {
	if x.Cols() != g.Dim() {
		return nil, fmt.Errorf("gaussian: projecting %d-dim rows with a %d-dim model", x.Cols(), g.Dim())
	}
	if err := g.ensureFactors(); err != nil {
		return nil, err
	}
	centered := mat.SubRowVec(x, g.Mean)
	return mat.MatMul(centered, g.basis), nil
}

// LogDensity evaluates the log of eq. 4 at each row of x, using the
// pseudo-inverse over the positive eigenvalues so near-singular covariances
// remain usable.
func (g *Gaussian) LogDensity(x *mat.Dense) ([]float64, error) {
	proj, err := g.Project(x) // rows in eigenbasis coordinates
	if err != nil {
		return nil, err
	}
	d := g.Dim()
	rank := 0
	for _, l := range g.eigvals {
		if l > 1e-12 {
			rank++
		}
	}
	norm := -0.5 * (float64(rank)*math.Log(2*math.Pi) + g.logDet)
	out := make([]float64, x.Rows())
	for i := range out {
		row := proj.Row(i)
		var quad float64
		for j := 0; j < d; j++ {
			if g.eigvals[j] > 1e-12 {
				quad += row[j] * row[j] / g.eigvals[j]
			}
		}
		out[i] = norm - 0.5*quad
	}
	return out, nil
}

package mat

import (
	"errors"
	"math"
	"sort"
)

// EigSym computes the eigendecomposition Σ = U Λ Uᵀ of a symmetric matrix
// using the cyclic Jacobi rotation method. It returns the eigenvalues in
// descending order and the matching eigenvectors as the columns of U.
//
// The paper uses this factorisation (§4.3) to express the covariance factor
// Q = U Λ^{1/2} that orthogonally projects client features.
func EigSym(a *Dense) (eigvals []float64, u *Dense, err error) {
	n := a.rows
	if a.cols != n {
		return nil, nil, errors.New("mat: EigSym requires a square matrix")
	}
	const (
		maxSweeps = 100
		tol       = 1e-12
	)
	// Work on a copy; accumulate rotations in u.
	w := a.Clone()
	// Symmetrise defensively: Jacobi assumes exact symmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.5 * (w.At(i, j) + w.At(j, i))
			w.Set(i, j, s)
			w.Set(j, i, s)
		}
	}
	u = Eye(n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < tol/float64(n*n) {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotate(w, u, p, q, c, s)
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sorted := make([]float64, n)
	usorted := New(n, n)
	for newCol, oldCol := range idx {
		sorted[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			usorted.Set(r, newCol, u.At(r, oldCol))
		}
	}
	return sorted, usorted, nil
}

// rotate applies the Jacobi rotation J(p,q,c,s) as w ← Jᵀ w J and u ← u J.
func rotate(w, u *Dense, p, q int, c, s float64) {
	n := w.rows
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		ukp, ukq := u.At(k, p), u.At(k, q)
		u.Set(k, p, c*ukp-s*ukq)
		u.Set(k, q, s*ukp+c*ukq)
	}
}

func offDiagNorm(w *Dense) float64 {
	var s float64
	n := w.rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				v := w.At(i, j)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// Covariance returns the d×d sample covariance of the rows of x (rows are
// observations, columns are features), normalised by n rather than n-1 to
// match the moment definitions of eq. 10/11.
func Covariance(x *Dense) *Dense {
	mu := MeanRows(x)
	c := SubRowVec(x, mu)
	cov := MatMulT1(c, c)
	if x.rows > 0 {
		cov.ScaleInPlace(1 / float64(x.rows))
	}
	return cov
}

package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals, u, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v want [3 1]", vals)
	}
	// Check A·u_j = λ_j·u_j for each column.
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			av := a.At(i, 0)*u.At(0, j) + a.At(i, 1)*u.At(1, j)
			if math.Abs(av-vals[j]*u.At(i, j)) > 1e-9 {
				t.Fatalf("A u != lambda u for pair %d", j)
			}
		}
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 16} {
		b := RandGaussian(rng, n, n, 0, 1)
		a := Add(b, b.T()) // symmetric
		vals, u, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct U Λ Uᵀ.
		ul := u.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				ul.Set(i, j, u.At(i, j)*vals[j])
			}
		}
		rec := MatMulT2(ul, u)
		if !rec.EqualApprox(a, 1e-8) {
			t.Fatalf("n=%d: U Λ Uᵀ does not reconstruct A (err %v)", n, FrobNorm(Sub(rec, a)))
		}
		// U must be orthogonal.
		if got := OrthoError(u); got > 1e-8 {
			t.Fatalf("n=%d: eigenvector matrix not orthogonal, defect %v", n, got)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
	}
}

func TestEigSymRejectsNonSquare(t *testing.T) {
	if _, _, err := EigSym(New(2, 3)); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}

func TestCovFactorReconstructsCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := RandGaussian(rng, 200, 6, 1.5, 2)
	sigma := Covariance(x)
	q, err := CovFactor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	rec := MatMulT2(q, q)
	if !rec.EqualApprox(sigma, 1e-8) {
		t.Fatalf("QQᵀ != Σ (err %v)", FrobNorm(Sub(rec, sigma)))
	}
}

func TestCovarianceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := RandGaussian(rng, 500, 4, 0, 3)
	cov := Covariance(x)
	// Symmetric.
	if !cov.EqualApprox(cov.T(), 1e-12) {
		t.Fatal("covariance not symmetric")
	}
	// Diagonal approximates variance 9.
	for i := 0; i < 4; i++ {
		if math.Abs(cov.At(i, i)-9) > 2 {
			t.Fatalf("variance estimate %v far from 9", cov.At(i, i))
		}
	}
}

func TestNewtonSchulzOrthogonalises(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 8, 32} {
		w := RandGaussian(rng, n, n, 0, 1)
		q, err := NewtonSchulz(w, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got := OrthoError(q); got > 1e-6 {
			t.Fatalf("n=%d: Newton-Schulz defect %v", n, got)
		}
	}
}

func TestNewtonSchulzErrors(t *testing.T) {
	if _, err := NewtonSchulz(New(2, 3), 5); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := NewtonSchulz(New(3, 3), 5); err == nil {
		t.Fatal("accepted zero matrix")
	}
}

func TestSpectralNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := RandGaussian(rng, 6, 6, 0, 2)
	q := SpectralNormalize(w)
	if math.Abs(FrobNorm(q)-1) > 1e-12 {
		t.Fatalf("normalised Frobenius norm = %v", FrobNorm(q))
	}
	z := New(3, 3)
	if FrobNorm(SpectralNormalize(z)) != 0 {
		t.Fatal("zero matrix mangled")
	}
}

func TestOrthoErrorZeroForIdentity(t *testing.T) {
	if OrthoError(Eye(5)) != 0 {
		t.Fatal("identity should have zero defect")
	}
}

func TestCovFactorPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		x := RandGaussian(rng, 30+rng.Intn(50), n, 0, 1)
		sigma := Covariance(x)
		q, err := CovFactor(sigma)
		if err != nil {
			return false
		}
		return MatMulT2(q, q).EqualApprox(sigma, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// CovFactor computes the covariance factor Q = U Λ^{1/2} of a symmetric
// positive-semidefinite matrix Σ, so that Σ = Q Qᵀ (§4.3, eq. 5). Negative
// eigenvalues arising from floating-point noise are clamped to zero.
func CovFactor(sigma *Dense) (*Dense, error) {
	vals, u, err := EigSym(sigma)
	if err != nil {
		return nil, err
	}
	n := sigma.rows
	q := New(n, n)
	for j := 0; j < n; j++ {
		l := vals[j]
		if l < 0 {
			l = 0
		}
		sq := math.Sqrt(l)
		for i := 0; i < n; i++ {
			q.Set(i, j, u.At(i, j)*sq)
		}
	}
	return q, nil
}

// SpectralNormalize returns W/‖W‖_F, the paper's Q̃ = Q/‖Q‖_F bounding step.
// A zero matrix is returned unchanged.
func SpectralNormalize(w *Dense) *Dense {
	n := FrobNorm(w)
	if n == 0 {
		return w.Clone()
	}
	return Scale(1/n, w)
}

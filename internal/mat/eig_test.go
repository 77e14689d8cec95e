package mat

import (
	"math"
	"math/rand"
	"testing"
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

func TestOrthoErrorZeroForIdentity(t *testing.T) {
	if OrthoError(Eye(5)) != 0 {
		t.Fatal("identity should have zero defect")
	}
}

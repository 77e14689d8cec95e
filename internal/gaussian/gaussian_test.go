package gaussian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedomd/internal/mat"
)

func sampleData(seed int64, n, d int, mean, std float64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	return mat.RandGaussian(rng, n, d, mean, std)
}

func TestFitRecoversMoments(t *testing.T) {
	x := sampleData(1, 4000, 3, 2, 0.5)
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(g.Mean.At(0, j)-2) > 0.05 {
			t.Fatalf("mean[%d] = %v", j, g.Mean.At(0, j))
		}
		if math.Abs(g.Cov.At(j, j)-0.25) > 0.05 {
			t.Fatalf("var[%d] = %v", j, g.Cov.At(j, j))
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(mat.New(0, 3), 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Fit(mat.New(5, 3), -1); err == nil {
		t.Fatal("negative ridge accepted")
	}
}

func TestFactorReconstructsCovariance(t *testing.T) {
	x := sampleData(2, 300, 4, 0, 1.5)
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.Factor()
	if err != nil {
		t.Fatal(err)
	}
	if !mat.MatMulT2(q, q).EqualApprox(g.Cov, 1e-8) {
		t.Fatal("QQᵀ != Σ")
	}
	u, err := g.Basis()
	if err != nil {
		t.Fatal(err)
	}
	if mat.OrthoError(u) > 1e-8 {
		t.Fatal("eigenbasis not orthogonal")
	}
}

func TestProjectDecorrelates(t *testing.T) {
	// Strongly correlated 2D data: projection into the eigenbasis must have
	// a diagonal covariance.
	rng := rand.New(rand.NewSource(3))
	n := 2000
	x := mat.New(n, 2)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		x.Set(i, 0, a+0.1*rng.NormFloat64())
		x.Set(i, 1, a+0.1*rng.NormFloat64())
	}
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Project(x)
	if err != nil {
		t.Fatal(err)
	}
	pcov := mat.Covariance(p)
	if math.Abs(pcov.At(0, 1)) > 1e-8 {
		t.Fatalf("projection did not decorrelate: off-diagonal %v", pcov.At(0, 1))
	}
	if _, err := g.Project(mat.New(2, 5)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestLogDensityPeaksAtMean(t *testing.T) {
	x := sampleData(4, 500, 2, 1, 1)
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := mat.NewFromRows([][]float64{
		{g.Mean.At(0, 0), g.Mean.At(0, 1)},
		{g.Mean.At(0, 0) + 3, g.Mean.At(0, 1) - 3},
	})
	ld, err := g.LogDensity(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ld[0] <= ld[1] {
		t.Fatalf("density at mean (%v) not above far point (%v)", ld[0], ld[1])
	}
}

func TestLogDensityMatchesClosedForm1D(t *testing.T) {
	// A 1D Gaussian's log density has a closed form to compare against.
	x := sampleData(5, 5000, 1, 0, 2)
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := mat.NewFromRows([][]float64{{1.0}})
	got, err := g.LogDensity(pt)
	if err != nil {
		t.Fatal(err)
	}
	mu, v := g.Mean.At(0, 0), g.Cov.At(0, 0)
	want := -0.5*math.Log(2*math.Pi*v) - (1-mu)*(1-mu)/(2*v)
	if math.Abs(got[0]-want) > 1e-9 {
		t.Fatalf("log density %v want %v", got[0], want)
	}
}

func TestSampleRoundTrip(t *testing.T) {
	x := sampleData(6, 3000, 3, -1, 0.7)
	g, err := Fit(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := g.Sample(rand.New(rand.NewSource(7)), 5000)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Fit(y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Mean.EqualApprox(g.Mean, 0.08) {
		t.Fatalf("resampled mean %v vs %v", g2.Mean, g.Mean)
	}
	if !g2.Cov.EqualApprox(g.Cov, 0.1) {
		t.Fatal("resampled covariance drifted")
	}
}

func TestDegenerateCovarianceWithRidge(t *testing.T) {
	// Constant data: covariance is zero; the ridge keeps everything finite.
	x := mat.New(50, 3)
	x.Fill(2)
	g, err := Fit(x, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := g.LogDensity(x.SliceRows(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ld[0]) || math.IsInf(ld[0], 0) {
		t.Fatalf("degenerate log density = %v", ld[0])
	}
}

func TestProjectIsometryProperty(t *testing.T) {
	// Projection through an orthogonal basis preserves pairwise distances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(4)
		x := mat.RandGaussian(rng, 40+rng.Intn(60), d, 0, 1)
		g, err := Fit(x, 1e-9)
		if err != nil {
			return false
		}
		p, err := g.Project(x)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			i, j := rng.Intn(x.Rows()), rng.Intn(x.Rows())
			var dx, dp float64
			for k := 0; k < d; k++ {
				a := x.At(i, k) - x.At(j, k)
				b := p.At(i, k) - p.At(j, k)
				dx += a * a
				dp += b * b
			}
			if math.Abs(dx-dp) > 1e-6*(1+dx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Factor returns Q with Σ = QQᵀ (eq. 5's covariance factor, Q = UΛ^{1/2}).
func (g *Gaussian) Factor() (*mat.Dense, error) {
	if err := g.ensureFactors(); err != nil {
		return nil, err
	}
	d := g.Dim()
	q := mat.New(d, d)
	for j, l := range g.eigvals {
		s := math.Sqrt(math.Max(l, 0))
		for i := 0; i < d; i++ {
			q.Set(i, j, g.basis.At(i, j)*s)
		}
	}
	return q, nil
}

// Basis returns the orthogonal eigenbasis U of Σ.
func (g *Gaussian) Basis() (*mat.Dense, error) {
	if err := g.ensureFactors(); err != nil {
		return nil, err
	}
	return g.basis.Clone(), nil
}

// Sample draws n rows from the distribution: x = μ + Q·z with z ~ N(0, I).
func (g *Gaussian) Sample(rng *rand.Rand, n int) (*mat.Dense, error) {
	q, err := g.Factor()
	if err != nil {
		return nil, err
	}
	z := mat.RandGaussian(rng, n, g.Dim(), 0, 1)
	x := mat.MatMulT2(z, q) // z·Qᵀ
	out := mat.New(n, g.Dim())
	mat.AddRowVecInto(out, x, g.Mean)
	return out, nil
}

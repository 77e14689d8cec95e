package moments

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

func TestComputeKnownValues(t *testing.T) {
	// Column [1, 3]: mean 2, var 1, third central moment 0, fourth 1.
	z, _ := mat.NewFromRows([][]float64{{1}, {3}})
	s, err := Compute(z, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.Mean.At(0, 0) != 2 {
		t.Fatalf("mean stats wrong: %+v", s)
	}
	want := []float64{1, 0, 1, 0} // orders 2..5
	for k, w := range want {
		if got := s.Central[k].At(0, 0); math.Abs(got-w) > 1e-12 {
			t.Fatalf("order %d = %v want %v", k+2, got, w)
		}
	}
	if s.MaxOrder() != 5 {
		t.Fatal("MaxOrder wrong")
	}
}

func TestComputeRejectsLowOrder(t *testing.T) {
	if _, err := Compute(mat.New(2, 2), 1); err == nil {
		t.Fatal("maxOrder 1 accepted")
	}
}

func TestCentralAroundForeignMean(t *testing.T) {
	z, _ := mat.NewFromRows([][]float64{{1}, {3}})
	foreign, _ := mat.NewFromRows([][]float64{{0.0}})
	moms := CentralAround(z, foreign, 3)
	// E(z²) around 0 = (1+9)/2 = 5; E(z³) = (1+27)/2 = 14.
	if moms[0].At(0, 0) != 5 || moms[1].At(0, 0) != 14 {
		t.Fatalf("moments around foreign mean wrong: %v %v", moms[0], moms[1])
	}
}

func TestAggregateMeansWeighted(t *testing.T) {
	m1, _ := mat.NewFromRows([][]float64{{1, 2}})
	m2, _ := mat.NewFromRows([][]float64{{5, 6}})
	g, err := AggregateMeans([]*mat.Dense{m1, m2}, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 2 || g.At(0, 1) != 3 {
		t.Fatalf("aggregate = %v", g)
	}
}

func TestAggregateErrors(t *testing.T) {
	m := mat.New(1, 2)
	if _, err := AggregateMeans(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := AggregateMeans([]*mat.Dense{m}, []int{1, 2}); err == nil {
		t.Fatal("count mismatch accepted")
	}
	if _, err := AggregateMeans([]*mat.Dense{m, mat.New(1, 3)}, []int{1, 1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := AggregateMeans([]*mat.Dense{m}, []int{0}); err == nil {
		t.Fatal("zero total accepted")
	}
	if _, err := AggregateMeans([]*mat.Dense{m}, []int{-1}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := AggregateCentral([][]*mat.Dense{{m}, {m, m}}, []int{1, 1}); err == nil {
		t.Fatal("ragged orders accepted")
	}
}

// TestProtocolMatchesPooled verifies the paper's central claim about the
// 2-round exchange (contribution (ii)): aggregating client means with eq. 10
// and then client moments centred on that global mean reproduces exactly the
// statistics of the pooled data — the "implicit i.i.d distribution".
func TestProtocolMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clients := []*mat.Dense{
		mat.RandGaussian(rng, 40, 6, 0.5, 1),
		mat.RandGaussian(rng, 25, 6, -1, 2),
		mat.RandGaussian(rng, 60, 6, 2, 0.5),
	}
	const K = 5
	// Round 1: upload means.
	means := make([]*mat.Dense, len(clients))
	counts := make([]int, len(clients))
	for i, c := range clients {
		means[i] = mat.MeanRows(c)
		counts[i] = c.Rows()
	}
	globalMean, err := AggregateMeans(means, counts)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: upload moments centred on the global mean.
	moms := make([][]*mat.Dense, len(clients))
	for i, c := range clients {
		moms[i] = CentralAround(c, globalMean, K)
	}
	globalCentral, err := AggregateCentral(moms, counts)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: pooled statistics.
	poolMean, poolCentral, err := PooledReference(clients, K)
	if err != nil {
		t.Fatal(err)
	}
	if !globalMean.EqualApprox(poolMean, 1e-10) {
		t.Fatal("protocol global mean differs from pooled mean")
	}
	for k := range poolCentral {
		if !globalCentral[k].EqualApprox(poolCentral[k], 1e-10) {
			t.Fatalf("protocol order-%d moment differs from pooled", k+2)
		}
	}
}

func TestCMDZeroForIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := mat.RandUniform(rng, 100, 4, 0, 1)
	s, err := Compute(z, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := CMD(s, s.Mean, s.Central, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("CMD of identical stats = %v", d)
	}
}

func TestCMDGrowsWithShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := mat.RandUniform(rng, 200, 3, 0.2, 0.5)
	ref, _ := Compute(base, 5)
	small := mat.Apply(base, func(x float64) float64 { return x + 0.05 })
	large := mat.Apply(base, func(x float64) float64 { return x + 0.4 })
	ss, _ := Compute(small, 5)
	ls, _ := Compute(large, 5)
	dSmall, err := CMD(ss, ref.Mean, ref.Central, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dLarge, _ := CMD(ls, ref.Mean, ref.Central, 0, 1)
	if !(dLarge > dSmall && dSmall > 0) {
		t.Fatalf("CMD not monotone in shift: %v vs %v", dSmall, dLarge)
	}
}

func TestCMDValidation(t *testing.T) {
	s, _ := Compute(mat.New(3, 2), 3)
	if _, err := CMD(s, s.Mean, s.Central, 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := CMD(s, s.Mean, s.Central[:1], 0, 1); err == nil {
		t.Fatal("order mismatch accepted")
	}
}

func TestCMDLossMatchesScalarCMD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := mat.RandUniform(rng, 50, 4, 0, 1)
	global := mat.RandUniform(rng, 60, 4, 0.2, 1)
	gs, _ := Compute(global, 5)
	ls, _ := Compute(z, 5)
	want, err := CMD(ls, gs.Mean, gs.Central, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := ad.NewTape()
	node := tp.Param(z)
	loss, err := CMDLoss(tp, node, gs.Mean, gs.Central, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss.Value.At(0, 0)-want) > 1e-10 {
		t.Fatalf("CMDLoss forward %v vs scalar CMD %v", loss.Value.At(0, 0), want)
	}
}

func TestCMDLossGradientDescentShrinksCMD(t *testing.T) {
	// Gradient descent on the CMD loss must move a shifted distribution
	// toward the reference — the mechanism FedOMD relies on.
	rng := rand.New(rand.NewSource(5))
	ref := mat.RandUniform(rng, 80, 3, 0.3, 0.9)
	gs, _ := Compute(ref, 5)
	z := mat.RandUniform(rng, 40, 3, 0.0, 0.4)
	initial := math.NaN()
	var final float64
	for step := 0; step < 200; step++ {
		tp := ad.NewTape()
		node := tp.Param(z)
		loss, err := CMDLoss(tp, node, gs.Mean, gs.Central, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			initial = loss.Value.At(0, 0)
		}
		final = loss.Value.At(0, 0)
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		z.AXPY(-0.1, node.Grad)
	}
	if !(final < initial*0.3) {
		t.Fatalf("CMD loss did not shrink under descent: %v -> %v", initial, final)
	}
}

func TestCMDLossValidation(t *testing.T) {
	tp := ad.NewTape()
	n := tp.Param(mat.New(2, 2))
	if _, err := CMDLoss(tp, n, mat.New(1, 2), nil, 1, 0); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestStatsBytesSmallVersusRawData(t *testing.T) {
	// The communication optimisation: a K=5 summary of an n×d layer costs
	// 5 vectors of d floats, independent of n.
	z := mat.New(10000, 64)
	s, _ := Compute(z, 5)
	if s.Bytes() >= 8*10000*64/10 {
		t.Fatalf("summary not small: %d bytes", s.Bytes())
	}
	wantFloats := 5 * 64 // mean + 4 central moment vectors
	if s.Bytes() != 8*wantFloats+8 {
		t.Fatalf("Bytes = %d want %d", s.Bytes(), 8*wantFloats+8)
	}
}

func TestAggregationInvariantToClientSplitProperty(t *testing.T) {
	// Splitting the same data into different client groupings must yield the
	// same global statistics.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		d := 2 + rng.Intn(4)
		data := mat.RandGaussian(rng, n, d, 0, 1)
		cut := 1 + rng.Intn(n-1)
		a1, a2 := data.SliceRows(0, cut), data.SliceRows(cut, n)
		cut2 := 1 + rng.Intn(n-1)
		b1, b2 := data.SliceRows(0, cut2), data.SliceRows(cut2, n)
		ga, _, err := PooledReference([]*mat.Dense{a1, a2}, 4)
		if err != nil {
			return false
		}
		gb, _, err := PooledReference([]*mat.Dense{b1, b2}, 4)
		if err != nil {
			return false
		}
		// And via the 2-round protocol for split A:
		means := []*mat.Dense{mat.MeanRows(a1), mat.MeanRows(a2)}
		counts := []int{a1.Rows(), a2.Rows()}
		gm, err := AggregateMeans(means, counts)
		if err != nil {
			return false
		}
		return ga.EqualApprox(gb, 1e-9) && gm.EqualApprox(ga, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// MaxOrder returns the highest moment order stored.
func (s Stats) MaxOrder() int { return len(s.Central) + 1 }

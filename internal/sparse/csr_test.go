package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fedomd/internal/mat"
)

func mustCSR(t *testing.T, rows, cols int, entries []Coord) *CSR {
	t.Helper()
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewCSRBasics(t *testing.T) {
	m := mustCSR(t, 3, 3, []Coord{{0, 1, 2}, {2, 0, 5}, {1, 1, -1}})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 || m.At(1, 1) != -1 {
		t.Fatal("stored values wrong")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("missing entry not zero")
	}
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := mustCSR(t, 2, 2, []Coord{{0, 0, 1}, {0, 0, 2.5}})
	if m.At(0, 0) != 3.5 || m.NNZ() != 1 {
		t.Fatalf("duplicates not summed: %v nnz=%d", m.At(0, 0), m.NNZ())
	}
}

func TestNewCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := NewCSR(2, 2, []Coord{{0, -1, 1}}); err == nil {
		t.Fatal("accepted negative col")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !id.ToDense().Equal(mat.Eye(4)) {
		t.Fatal("Identity wrong")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{5, 7}, {40, 23}, {200, 64}} {
		a := randomCSR(rng, dims[0], dims[1], 0.15)
		x := mat.RandGaussian(rng, dims[1], 9, 0, 1)
		want := mat.MatMul(a.ToDense(), x)
		got := a.MulDense(x)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("MulDense disagrees for %v", dims)
		}
	}
}

func TestTMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 31, 17, 0.2)
	x := mat.RandGaussian(rng, 31, 5, 0, 1)
	want := mat.MatMul(a.ToDense().T(), x)
	got := a.TMulDense(x)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("TMulDense disagrees with dense transpose multiply")
	}
}

func TestMulDenseShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	Identity(3).MulDense(mat.New(4, 2))
}

// TestFromDense checks the dense-to-CSR conversion: it round-trips through
// ToDense, stores no zero, and keeps each row's columns strictly ascending
// (the invariant NewCSRFromParts enforces and At's binary search needs).
func TestFromDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range [][2]int{{10, 14}, {1, 1}, {7, 3}, {0, 5}} {
		want := randomCSR(rng, sh[0], sh[1], 0.3).ToDense()
		if sh[0] > 0 {
			want.Set(0, 0, 0) // an explicit zero must be dropped
		}
		m := FromDense(want)
		if !m.ToDense().Equal(want) {
			t.Fatalf("%v: FromDense does not round-trip", sh)
		}
		nz := 0
		for _, v := range want.Data() {
			if v != 0 {
				nz++
			}
		}
		if m.NNZ() != nz {
			t.Fatalf("%v: NNZ = %d, want %d non-zeros", sh, m.NNZ(), nz)
		}
		if _, err := NewCSRFromParts(m.rows, m.cols, m.rowPtr, m.colIdx, m.vals); err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		for _, v := range m.vals {
			if v == 0 {
				t.Fatalf("%v: stored a zero", sh)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := mustCSR(t, 3, 3, []Coord{{0, 1, 2}, {1, 0, 2}, {2, 2, 1}})
	if !sym.IsSymmetric(0) {
		t.Fatal("symmetric matrix not detected")
	}
	asym := mustCSR(t, 3, 3, []Coord{{0, 1, 2}})
	if asym.IsSymmetric(0) {
		t.Fatal("asymmetric matrix declared symmetric")
	}
	if mustCSR(t, 2, 3, nil).IsSymmetric(0) {
		t.Fatal("non-square declared symmetric")
	}
}

func TestGCNNormalizeKnown(t *testing.T) {
	// Path graph 0-1: A+I degrees are [2,2]; off-diagonals become 1/2.
	a := mustCSR(t, 2, 2, []Coord{{0, 1, 1}, {1, 0, 1}})
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mat.NewFromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if !s.ToDense().EqualApprox(want, 1e-12) {
		t.Fatalf("GCNNormalize = %v", s.ToDense())
	}
}

func TestGCNNormalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Random symmetric 0/1 adjacency.
	n := 30
	var entries []Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.1 {
				entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
			}
		}
	}
	a := mustCSR(t, n, n, entries)
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSymmetric(1e-12) {
		t.Fatal("normalised operator should be symmetric for symmetric A")
	}
	// Isolated nodes get only the self loop, normalised to exactly 1.
	// All values in (0, 1].
	for i := 0; i < n; i++ {
		s.RowEntries(i, func(_ int, v float64) {
			if v <= 0 || v > 1+1e-12 {
				t.Fatalf("normalised value %v outside (0,1]", v)
			}
		})
	}
	// Largest eigenvalue of S̃ is 1 (Perron); check via power iteration that
	// ‖S̃x‖ ≤ ‖x‖ holds for random x.
	x := mat.RandGaussian(rng, n, 1, 0, 1)
	for k := 0; k < 5; k++ {
		y := s.MulDense(x)
		if mat.FrobNorm(y) > mat.FrobNorm(x)+1e-9 {
			t.Fatal("GCN operator expanded a vector; spectral radius > 1")
		}
		x = y
	}
}

func TestGCNNormalizeRejectsNonSquare(t *testing.T) {
	if _, err := GCNNormalize(mustCSR(t, 2, 3, nil)); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestGCNNormalizeIsolatedNode(t *testing.T) {
	// Node 2 is isolated: its only entry after normalisation is S[2,2]=1.
	a := mustCSR(t, 3, 3, []Coord{{0, 1, 1}, {1, 0, 1}})
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(2, 2) != 1 {
		t.Fatalf("isolated node self weight = %v want 1", s.At(2, 2))
	}
}

func TestRowSumNormalize(t *testing.T) {
	a := mustCSR(t, 3, 3, []Coord{{0, 1, 1}, {0, 2, 1}, {1, 0, 2}})
	nrm := RowSumNormalize(a)
	if nrm.At(0, 1) != 0.5 || nrm.At(0, 2) != 0.5 {
		t.Fatal("row 0 not mean-normalised")
	}
	if nrm.At(1, 0) != 1 {
		t.Fatal("row 1 not normalised")
	}
	// Zero row stays zero; original untouched.
	if nrm.RowNNZ(2) != 0 {
		t.Fatal("zero row gained entries")
	}
	if a.At(0, 1) != 1 {
		t.Fatal("RowSumNormalize mutated its input")
	}
}

func TestMulDenseLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 2+rng.Intn(20), 2+rng.Intn(20)
		a := randomCSR(rng, r, c, 0.25)
		x := mat.RandGaussian(rng, c, 3, 0, 1)
		y := mat.RandGaussian(rng, c, 3, 0, 1)
		left := a.MulDense(mat.Add(x, y))
		right := mat.Add(a.MulDense(x), a.MulDense(y))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGCNRowStochasticOnRegularGraph(t *testing.T) {
	// Ring of n nodes: every node has degree 2, so D^{-1/2}(A+I)D^{-1/2} rows
	// sum to exactly 1.
	n := 12
	var entries []Coord
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
	}
	a := mustCSR(t, n, n, entries)
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var sum float64
		s.RowEntries(i, func(_ int, v float64) { sum += v })
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v on a regular graph", i, sum)
		}
	}
}

func randCSR(t *testing.T, rows, cols, nnz int, rng *rand.Rand) *CSR {
	t.Helper()
	entries := make([]Coord, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	return m
}

func randX(rows, cols int, rng *rand.Rand) *mat.Dense {
	x := mat.New(rows, cols)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// TestSpMMBitIdenticalAcrossWorkerCounts extends the kernel determinism
// contract to the sparse kernels, including the stripe-parallel transposed
// SpMM (forced past its serial threshold).
func TestSpMMBitIdenticalAcrossWorkerCounts(t *testing.T) {
	defer mat.SetWorkers(0)
	rng := rand.New(rand.NewSource(3))
	rows, cols, c := 700, 650, 48 // nnz*c clears both parallel thresholds
	m := randCSR(t, rows, cols, 40000, rng)
	x := randX(cols, c, rng)
	xt := randX(rows, c, rng)

	mat.SetWorkers(1)
	refMul := m.MulDense(x)
	refT := m.TMulDense(xt)
	refAdd := mat.New(cols, c)
	m.TMulDenseAddInto(refAdd, xt)
	m.TMulDenseAddInto(refAdd, xt)

	ncpu := runtime.NumCPU()
	for _, w := range []int{2, ncpu, ncpu + 3} {
		mat.SetWorkers(w)
		gotMul := m.MulDense(x)
		gotT := m.TMulDense(xt)
		gotAdd := mat.New(cols, c)
		m.TMulDenseAddInto(gotAdd, xt)
		m.TMulDenseAddInto(gotAdd, xt)
		for i, v := range refMul.Data() {
			if gotMul.Data()[i] != v {
				t.Fatalf("MulDense workers=%d: element %d differs", w, i)
			}
		}
		for i, v := range refT.Data() {
			if gotT.Data()[i] != v {
				t.Fatalf("TMulDense workers=%d: element %d differs", w, i)
			}
		}
		for i, v := range refAdd.Data() {
			if gotAdd.Data()[i] != v {
				t.Fatalf("TMulDenseAddInto workers=%d: element %d differs", w, i)
			}
		}
	}
}

// TestNewCSRCountingSortMatchesSpec pins the linear assembly against the
// documented semantics: (row, col)-sorted, duplicates summed in input order.
func TestNewCSRCountingSortMatchesSpec(t *testing.T) {
	entries := []Coord{
		{Row: 2, Col: 3, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 3, Val: 0.5}, // duplicate, summed
		{Row: 2, Col: 0, Val: -1},
		{Row: 0, Col: 4, Val: 3},
		{Row: 0, Col: 1, Val: 1}, // duplicate, summed
	}
	m, err := NewCSR(3, 5, entries)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 after duplicate merge", m.NNZ())
	}
	if got := m.At(0, 1); got != 3 {
		t.Fatalf("At(0,1) = %g, want 3", got)
	}
	if got := m.At(2, 3); got != 1.5 {
		t.Fatalf("At(2,3) = %g, want 1.5", got)
	}
	// Sorted columns within each row (At's binary search relies on it).
	for i := 0; i < m.Rows(); i++ {
		last := -1
		m.RowEntries(i, func(col int, _ float64) {
			if col <= last {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
			last = col
		})
	}
	// Randomised cross-check against a dense accumulation.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 3+rng.Intn(40), 3+rng.Intn(40)
		n := rng.Intn(5 * rows)
		es := make([]Coord, n)
		dense := make([]float64, rows*cols)
		for i := range es {
			r, cc, v := rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()
			es[i] = Coord{Row: r, Col: cc, Val: v}
			dense[r*cols+cc] += v
		}
		m, err := NewCSR(rows, cols, es)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			for cc := 0; cc < cols; cc++ {
				want := dense[r*cols+cc]
				got := m.At(r, cc)
				d := got - want
				if d < -1e-12 || d > 1e-12 {
					t.Fatalf("At(%d,%d) = %g, want %g", r, cc, got, want)
				}
			}
		}
	}
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	m := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, n), vals: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = i + 1
		m.colIdx[i] = i
		m.vals[i] = 1
	}
	return m
}

// IsSymmetric reports whether m equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if math.Abs(m.vals[k]-m.At(m.colIdx[k], i)) > tol {
				return false
			}
		}
	}
	return true
}

// TMulDense returns mᵀ·x without materialising the transpose.
func (m *CSR) TMulDense(x *mat.Dense) *mat.Dense {
	out := mat.New(m.cols, x.Cols())
	m.tMulDenseAccum(out, x)
	return out
}

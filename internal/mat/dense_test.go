package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value not zero: %v", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v want 6", m.At(2, 1))
	}
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	empty, err := NewFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty rows: %v %v", empty, err)
	}
}

func TestNewFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched data length")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v want %v", i, j, e.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandGaussian(rng, 37, 53, 0, 1)
	at := a.T()
	if at.Rows() != 53 || at.Cols() != 37 {
		t.Fatalf("T dims = %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
	if !a.T().T().Equal(a) {
		t.Fatal("double transpose not identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSliceAndSelectRows(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	s := a.SliceRows(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 2 || s.At(1, 1) != 3 {
		t.Fatalf("SliceRows wrong: %v", s)
	}
	sel := a.SelectRows([]int{3, 0})
	if sel.At(0, 0) != 4 || sel.At(1, 0) != 1 {
		t.Fatalf("SelectRows wrong: %v", sel)
	}
}

func TestElementwiseOps(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b).At(1, 1); got != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).At(0, 0); got != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := MulElem(a, b).At(0, 1); got != 40 {
		t.Fatalf("MulElem = %v", got)
	}
	if got := Scale(2, a).At(1, 0); got != 6 {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	c.AXPY(0.5, b)
	if got := c.At(0, 0); got != 6 {
		t.Fatalf("AXPY = %v", got)
	}
}

func TestBroadcastRowVec(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	v, _ := NewFromRows([][]float64{{10, 100}})
	add := AddRowVec(a, v)
	if add.At(1, 1) != 104 || add.At(0, 0) != 11 {
		t.Fatalf("AddRowVec wrong: %v", add)
	}
	sub := SubRowVec(a, v)
	if sub.At(0, 1) != -98 {
		t.Fatalf("SubRowVec wrong: %v", sub)
	}
}

func TestReductions(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	mean := MeanRows(a)
	if mean.At(0, 0) != 2 || mean.At(0, 1) != 3 {
		t.Fatalf("MeanRows = %v", mean)
	}
	if Sum(a) != 10 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Max(a) != 4 || Min(a) != 1 {
		t.Fatalf("Max/Min wrong")
	}
	if got := FrobNormSq(a); got != 30 {
		t.Fatalf("FrobNormSq = %v", got)
	}
	if got := FrobNorm(a); math.Abs(got-math.Sqrt(30)) > 1e-15 {
		t.Fatalf("FrobNorm = %v", got)
	}
	if got := Dot(a, a); got != 30 {
		t.Fatalf("Dot = %v", got)
	}
	sums := SumRows(a)
	if sums.At(0, 0) != 4 || sums.At(0, 1) != 6 {
		t.Fatalf("SumRows = %v", sums)
	}
}

func TestMeanRowsEmpty(t *testing.T) {
	mean := MeanRows(New(0, 3))
	if mean.Rows() != 1 || mean.Cols() != 3 || Sum(mean) != 0 {
		t.Fatalf("MeanRows on empty: %v", mean)
	}
}

func TestCentralMomentsNegativeBase(t *testing.T) {
	a, _ := NewFromRows([][]float64{{-2, 3}})
	out := []*Dense{New(1, 2), New(1, 2)}
	CentralMomentsInto(out, a, New(1, 2))
	if out[0].At(0, 0) != 4 || out[0].At(0, 1) != 9 {
		t.Fatalf("order 2 = %v", out[0])
	}
	if out[1].At(0, 0) != -8 || out[1].At(0, 1) != 27 {
		t.Fatalf("order 3 = %v, odd orders must keep the sign", out[1])
	}
}

// An output that shares storage with an input would be zeroed before the
// sweep reads it, so the kernel refuses the call by name.
func TestCentralMomentsAliasPanics(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}})
	tall, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m := New(1, 2)
	for _, c := range []struct {
		name string
		out  []*Dense
		a    *Dense
	}{
		{"out is a", []*Dense{a}, a},
		{"out is mean", []*Dense{New(1, 2), m}, a},
		{"out views a row of a", []*Dense{NewFromData(1, 2, tall.Data()[2:])}, tall},
	} {
		name := c.name
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", name)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "CentralMomentsInto") {
					t.Fatalf("%s: panic %v does not name the kernel", name, r)
				}
			}()
			CentralMomentsInto(c.out, c.a, m)
		}()
	}
	CentralMomentsInto([]*Dense{New(1, 2), New(1, 2)}, a, m) // distinct storage is fine
}

func TestArgmaxRows(t *testing.T) {
	a, _ := NewFromRows([][]float64{{0.1, 0.9, 0.2}, {5, 1, 2}})
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	for name, f := range map[string]func(){
		"Add":     func() { Add(a, b) },
		"Sub":     func() { Sub(a, b) },
		"MulElem": func() { MulElem(a, b) },
		"Dot":     func() { Dot(a, b) },
		"MatMul":  func() { MatMul(a, New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

// naiveMatMul is the obvious triple loop used as a test oracle.
func naiveMatMul(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 48, 32}, {130, 70, 90}} {
		a := RandGaussian(rng, dims[0], dims[1], 0, 1)
		b := RandGaussian(rng, dims[1], dims[2], 0, 1)
		want := naiveMatMul(a, b)
		for name, got := range map[string]*Dense{
			"MatMul":       MatMul(a, b),
			"MatMulSerial": MatMulSerial(a, b),
		} {
			if !got.EqualApprox(want, 1e-9) {
				t.Fatalf("%s(%v) disagrees with naive", name, dims)
			}
		}
	}
}

func TestMatMulT1T2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandGaussian(rng, 33, 21, 0, 1)
	b := RandGaussian(rng, 33, 17, 0, 1)
	want := naiveMatMul(a.T(), b)
	if got := MatMulT1(a, b); !got.EqualApprox(want, 1e-9) {
		t.Fatal("MatMulT1 disagrees with explicit transpose")
	}
	c := RandGaussian(rng, 29, 21, 0, 1)
	want2 := naiveMatMul(a, c.T())
	if got := MatMulT2(a, c); !got.EqualApprox(want2, 1e-9) {
		t.Fatal("MatMulT2 disagrees with explicit transpose")
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		a := RandGaussian(rng, r, c, 0, 1)
		return MatMul(a, Eye(c)).EqualApprox(a, 1e-12) &&
			MatMul(Eye(r), a).EqualApprox(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandGaussian(rng, m, k, 0, 1)
		b := RandGaussian(rng, k, n, 0, 1)
		c := RandGaussian(rng, k, n, 0, 1)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := Xavier(rng, 50, 70)
	bound := math.Sqrt(6.0 / 120.0)
	if Max(w) > bound || Min(w) < -bound {
		t.Fatalf("Xavier out of bounds: [%v, %v] vs ±%v", Min(w), Max(w), bound)
	}
}

func TestHeVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fanIn := 400
	w := He(rng, fanIn, 300)
	varWant := 2.0 / float64(fanIn)
	var s float64
	for _, v := range w.Data() {
		s += v * v
	}
	varGot := s / float64(len(w.Data()))
	if math.Abs(varGot-varWant)/varWant > 0.1 {
		t.Fatalf("He variance %v want about %v", varGot, varWant)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := RandGaussian(rand.New(rand.NewSource(99)), 10, 10, 0, 1)
	b := RandGaussian(rand.New(rand.NewSource(99)), 10, 10, 0, 1)
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
}

// MulElem returns the Hadamard (element-wise) product a ⊙ b.
func MulElem(a, b *Dense) *Dense {
	a.mustSameShape(b, "MulElem")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
	return out
}

// SumRows returns the 1×c column-wise sum of a.
func SumRows(a *Dense) *Dense {
	out := New(1, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// Dot returns the Frobenius inner product <a, b> = Σ a_ij b_ij.
func Dot(a, b *Dense) float64 {
	a.mustSameShape(b, "Dot")
	var s float64
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// He returns an r×c matrix with He-normal entries N(0, 2/r), the ReLU-aware
// initialisation the paper cites [15].
func He(rng *rand.Rand, r, c int) *Dense {
	return RandGaussian(rng, r, c, 0, math.Sqrt(2/float64(r)))
}

// AddRowVec returns a + v broadcast over rows, where v is 1×c.
func AddRowVec(a, v *Dense) *Dense {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: AddRowVec wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x + v.data[j]
		}
	}
	return out
}

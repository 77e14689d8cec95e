package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/sparse"
)

func paramsFrom(names []string, mats []*mat.Dense) *nn.Params {
	p := nn.NewParams()
	for i, n := range names {
		p.Add(n, mats[i])
	}
	return p
}

func randParams(rng *rand.Rand, scale float64) *nn.Params {
	p := nn.NewParams()
	shapes := []struct {
		name string
		r, c int
	}{{"w0", 7, 5}, {"b0", 1, 5}, {"w1", 5, 3}, {"b1", 1, 3}}
	for _, s := range shapes {
		m := mat.New(s.r, s.c)
		d := m.Data()
		for i := range d {
			d[i] = scale * rng.NormFloat64()
		}
		p.Add(s.name, m)
	}
	return p
}

// perturb returns ref + noise, modelling one round of local training drift.
func perturb(rng *rand.Rand, ref *nn.Params, eps float64) *nn.Params {
	p := ref.Clone()
	for i := 0; i < p.Len(); i++ {
		d := p.At(i).Data()
		for j := range d {
			d[j] += eps * rng.NormFloat64()
		}
	}
	return p
}

func roundTrip(t *testing.T, opts Options, p, ref *nn.Params) *nn.Params {
	t.Helper()
	enc := NewEncoder(opts)
	blob, err := enc.EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatalf("encode (%s): %v", opts.Name(), err)
	}
	dec, err := DecodeParams(blob, ref)
	if err != nil {
		t.Fatalf("decode (%s): %v", opts.Name(), err)
	}
	if err := p.Compatible(dec); err != nil {
		t.Fatalf("decoded params incompatible (%s): %v", opts.Name(), err)
	}
	return dec
}

func maxAbsErr(a, b *nn.Params) float64 {
	var worst float64
	for i := 0; i < a.Len(); i++ {
		da, db := a.At(i).Data(), b.At(i).Data()
		for j := range da {
			if e := math.Abs(da[j] - db[j]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// Lossless tiers must round-trip bit-identically: raw (absolute frames,
// no reference) and XOR delta, including awkward values the arithmetic
// delta p = g + (p−g) would not reproduce exactly.
func TestRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 1e-3)
	// Values with no short float64 relationship to the reference.
	p.At(0).Data()[0] = 0x1p-1040        // subnormal
	p.At(0).Data()[1] = -math.MaxFloat64 // extreme exponent
	p.At(1).Data()[0] = 1 + 0x1p-52      // one ulp above 1
	p.At(2).Data()[0] = p.At(2).Data()[0] * (1 + 1e-16)

	opts := Options{Kind: Delta}
	dec := roundTrip(t, opts, p, ref)
	for i := 0; i < p.Len(); i++ {
		if !p.At(i).Equal(dec.At(i)) {
			t.Fatalf("%s: tensor %d not bit-identical", opts.Name(), i)
		}
	}
	// Absolute blob (nil reference) must also be exact.
	dec = roundTrip(t, Options{Kind: Delta}, p, nil)
	for i := 0; i < p.Len(); i++ {
		if !p.At(i).Equal(dec.At(i)) {
			t.Fatalf("absolute: tensor %d not bit-identical", i)
		}
	}
}

// Float32 delta error is bounded by 2⁻²³ of the delta magnitude.
func TestRoundTripFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	dec := roundTrip(t, Options{Kind: Float32}, p, ref)
	for i := 0; i < p.Len(); i++ {
		dp, dr, dd := p.At(i).Data(), ref.At(i).Data(), dec.At(i).Data()
		for j := range dp {
			delta := dp[j] - dr[j]
			if e, bound := math.Abs(dd[j]-dp[j]), math.Abs(delta)*0x1p-23+1e-300; e > bound {
				t.Fatalf("tensor %d[%d]: float32 error %g exceeds 2^-23 bound %g", i, j, e, bound)
			}
		}
	}
}

// Quantize→dequantize error is bounded by half the step size
// (hi−lo)/(2^q − 1) per tensor.
func TestRoundTripQuantBound(t *testing.T) {
	for _, qbits := range []int{8, 4} {
		rng := rand.New(rand.NewSource(int64(9 + qbits)))
		ref := randParams(rng, 1)
		p := perturb(rng, ref, 0.05)
		dec := roundTrip(t, Options{Kind: Quant, Bits: qbits}, p, ref)
		for i := 0; i < p.Len(); i++ {
			dp, dr, dd := p.At(i).Data(), ref.At(i).Data(), dec.At(i).Data()
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := range dp {
				d := dp[j] - dr[j]
				lo, hi = math.Min(lo, d), math.Max(hi, d)
			}
			step := (hi - lo) / float64(uint64(1)<<qbits-1)
			for j := range dp {
				if e := math.Abs(dd[j] - dp[j]); e > step/2*(1+1e-9) {
					t.Fatalf("q%d tensor %d[%d]: error %g exceeds step/2 = %g", qbits, i, j, e, step/2)
				}
			}
		}
	}
}

// Error feedback: encoding the same target repeatedly must converge — the
// residual carries what each round's quantization dropped, so the decoded
// sequence averages out to the true delta instead of a biased point.
func TestErrorFeedbackConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	enc := NewEncoder(Options{Kind: Quant, Bits: 4})
	const rounds = 64
	sum := ref.Clone()
	sum.Zero()
	for r := 0; r < rounds; r++ {
		blob, err := enc.EncodeParams(nil, p, ref)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeParams(blob, ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.AXPY(1.0/rounds, dec); err != nil {
			t.Fatal(err)
		}
		PutParams(dec)
	}
	// One 4-bit round is off by up to step/2; the EF-compensated mean over
	// many rounds must be far tighter.
	if e := maxAbsErr(sum, p); e > 2e-3 {
		t.Fatalf("EF mean error %g; want < 2e-3", e)
	}
	// Without EF the mean stays pinned at one-round quantization error;
	// prove the compensation actually engaged by checking one round's error
	// is much larger than the mean's.
	oneBlob, _ := NewEncoder(Options{Kind: Quant, Bits: 4}).EncodeParams(nil, p, ref)
	oneDec, _ := DecodeParams(oneBlob, ref)
	if one := maxAbsErr(oneDec, p); one < 5*maxAbsErr(sum, p) {
		t.Fatalf("EF mean error %g not clearly below single-round error %g", maxAbsErr(sum, p), one)
	}
	PutParams(oneDec)
}

// Reset must drop every residual (the next lossy frame starts uncompensated,
// exactly as a fresh encoder would) and tolerate a nil receiver, since
// transport desync handlers clear unconditionally before the codec layer is
// armed.
func TestResetDropsResidualsAndIsNilSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	enc := NewEncoder(Options{Kind: Quant, Bits: 4})
	if _, err := enc.EncodeParams(nil, p, ref); err != nil {
		t.Fatal(err)
	}
	if len(enc.residual) == 0 {
		t.Fatal("lossy encode left no residual to clear")
	}
	enc.Reset()
	if len(enc.residual) != 0 {
		t.Fatalf("Reset left %d residuals", len(enc.residual))
	}
	// A post-Reset frame must be bit-identical to a fresh encoder's: no trace
	// of the old error feedback may survive.
	a, err := enc.EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEncoder(Options{Kind: Quant, Bits: 4}).EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("post-Reset frame differs from a fresh encoder's")
	}
	var nilEnc *Encoder
	nilEnc.Reset() // must not panic
}

// Top-k keeps exactly ⌈k·n⌉ entries per tensor — the largest deltas — and
// the error feedback residual holds everything dropped.
func TestTopKSparsification(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	opts := Options{Kind: Delta, TopK: 0.25}
	enc := NewEncoder(opts)
	blob, err := enc.EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeParams(blob, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Len(); i++ {
		dp, dr, dd := p.At(i).Data(), ref.At(i).Data(), dec.At(i).Data()
		n := len(dp)
		k := int(math.Ceil(0.25 * float64(n)))
		kept, minKept, maxDropped := 0, math.Inf(1), 0.0
		for j := range dp {
			if dd[j] != dr[j] { // entry was transmitted
				kept++
				minKept = math.Min(minKept, math.Abs(dp[j]-dr[j]))
				if dd[j] != dp[j] {
					t.Fatalf("tensor %d[%d]: kept entry not exact under Delta inner coding", i, j)
				}
			} else {
				maxDropped = math.Max(maxDropped, math.Abs(dp[j]-dr[j]))
			}
		}
		if kept > k {
			t.Fatalf("tensor %d: %d entries survived, want ≤ %d", i, kept, k)
		}
		if maxDropped > minKept {
			t.Fatalf("tensor %d: dropped |%g| while keeping |%g|", i, maxDropped, minKept)
		}
	}
	// The error feedback must eventually deliver the dropped mass: the mean
	// of many compensated uploads of the same target converges to it (the
	// residual is bounded, so Σ decoded ≈ T·delta).
	const rounds = 48
	sum := ref.Clone()
	sum.Zero()
	if err := sum.AXPY(1.0/rounds, dec); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < rounds; r++ {
		blob, err := enc.EncodeParams(nil, p, ref)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeParams(blob, ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.AXPY(1.0/rounds, d); err != nil {
			t.Fatal(err)
		}
		PutParams(d)
	}
	if one, mean := maxAbsErr(dec, p), maxAbsErr(sum, p); mean > one/4 {
		t.Fatalf("top-k EF mean error %g not clearly below single-round error %g", mean, one)
	}
	PutParams(dec)
}

// Non-finite tensors are escaped to absolute frames so the server's screen
// sees the genuine NaN, and the encoder's residual is not poisoned.
func TestNonFiniteEscapesLossyEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	p.At(1).Data()[2] = math.NaN()
	enc := NewEncoder(Options{Kind: Quant, Bits: 8})
	blob, err := enc.EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeParams(blob, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dec.At(1).Data()[2]) {
		t.Fatal("NaN did not survive the wire")
	}
	for j, v := range p.At(1).Data() {
		if math.Float64bits(dec.At(1).Data()[j]) != math.Float64bits(v) {
			t.Fatalf("non-finite tensor not sent verbatim at [%d]", j)
		}
	}
	if r, ok := enc.residual["b0"]; ok {
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("residual poisoned by non-finite upload")
			}
		}
	}
}

// A blob encoded against one reference must refuse to decode against
// another: the checksum names the exact base state.
func TestReferenceChecksumMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	blob, err := NewEncoder(Options{Kind: Delta}).EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	wrong := perturb(rng, ref, 0.05)
	if _, err := DecodeParams(blob, wrong); err == nil {
		t.Fatal("decode against the wrong reference succeeded")
	}
	if _, err := DecodeParams(blob, nil); err == nil {
		t.Fatal("decode with no reference succeeded")
	}
}

func TestParseAndValidate(t *testing.T) {
	cases := []struct {
		name string
		bits int
		topk float64
		want Options
		bad  bool
	}{
		{name: "", want: Options{Kind: Raw}},
		{name: "raw", want: Options{Kind: Raw}},
		{name: "delta", want: Options{Kind: Delta}},
		{name: "f32", want: Options{Kind: Float32}},
		{name: "float32", want: Options{Kind: Float32}},
		{name: "quant", want: Options{Kind: Quant, Bits: 8}},
		{name: "quant", bits: 4, want: Options{Kind: Quant, Bits: 4}},
		{name: "q8", want: Options{Kind: Quant, Bits: 8}},
		{name: "q4", want: Options{Kind: Quant, Bits: 4}},
		{name: "delta", topk: 0.1, want: Options{Kind: Delta, TopK: 0.1}},
		{name: "zstd", bad: true},
		{name: "quant", bits: 3, bad: true},
		{name: "raw", topk: 0.5, bad: true},
		{name: "delta", topk: 1.0, bad: true},
		{name: "delta", topk: -0.1, bad: true},
	}
	for _, c := range cases {
		got, err := Parse(c.name, c.bits, c.topk)
		if c.bad {
			if err == nil {
				t.Errorf("Parse(%q, %d, %g): want error", c.name, c.bits, c.topk)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q, %d, %g): %v", c.name, c.bits, c.topk, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q, %d, %g) = %+v, want %+v", c.name, c.bits, c.topk, got, c.want)
		}
	}
}

// goldenW and goldenRef are the tensor and the reference of the pinned
// wire-format blobs: the reference differs from w only in the last element
// (0.5 → 0.75 flips one exponent-area byte).
func goldenW() *nn.Params {
	return paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 3, []float64{1.0, -2.5, 0.5})})
}

func goldenRef() *nn.Params {
	return paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 3, []float64{1.0, -2.5, 0.75})})
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Golden wire-format test: the v2 byte layout is pinned so a future change
// to the framing is a deliberate version bump, not a silent break.
func TestGoldenWireFormat(t *testing.T) {
	p, ref := goldenW(), goldenRef()
	w := p.At(0)

	// Absolute blob (no reference): one raw-float64 frame.
	blob, err := NewEncoder(Options{Kind: Delta}).EncodeParams(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAbs := "" +
		"fd020100" + "01000000" + "0000000000000000" + // header: magic, v2, kind=delta, bits=0, count=1, refsum=0
		"18000000" + "01000000" + "03000000" + "00" + "01" + "77" + // frame: 24-byte body, 1x3, mode=raw, name "w"
		"000000000000f03f" + "00000000000004c0" + "000000000000e03f" // 1.0, -2.5, 0.5 LE
	if got := hex.EncodeToString(blob); got != wantAbs {
		t.Fatalf("absolute blob drifted from the pinned v2 layout:\n got %s\nwant %s", got, wantAbs)
	}

	// Delta blob against goldenRef.
	blob, err = NewEncoder(Options{Kind: Delta}).EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := "" +
		"fd020100" + "01000000" + "dc9152e11346e233" + // header: v2, refsum = RefSum(goldenRef) LE
		"09000000" + "01000000" + "03000000" + "01" + "01" + "77" + // 9-byte body, 1x3, mode=xor, "w"
		"0007" + // nibble table: elements 0,1 identical (0 bytes), element 2 has 7 significant bytes
		"00000000000008" // xor of 0.5 and 0.75 bit patterns, low bytes first
	if got := hex.EncodeToString(blob); got != wantDelta {
		t.Fatalf("delta blob drifted from the pinned v2 layout:\n got %s\nwant %s", got, wantDelta)
	}
	if got := binary.LittleEndian.Uint64(blob[8:]); got != RefSum(ref) {
		t.Fatalf("refsum field %016x does not match RefSum %016x", got, RefSum(ref))
	}

	// Decode both pinned blobs to prove the bytes are live, not a fossil.
	for _, c := range []struct {
		name string
		blob []byte
	}{{"absolute", unhex(t, wantAbs)}, {"delta", blob}} {
		dec, err := DecodeParams(c.blob, ref)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !dec.At(0).Equal(w) {
			t.Fatalf("%s: pinned blob decodes to the wrong values", c.name)
		}
		PutParams(dec)
	}
	// Every other version is refused, v1 included.
	for _, v := range []byte{0, 1, 3} {
		b := unhex(t, wantAbs)
		b[1] = v
		if _, err := DecodeParams(b, nil); err == nil || err.Error() != fmt.Sprintf("codec: unsupported wire version %d", v) {
			t.Fatalf("version %d: %v", v, err)
		}
	}
}

// The refsum definition is pinned: it is half of the wire contract (both
// peers must hash references identically).
func TestGoldenRefSum(t *testing.T) {
	ref := paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 2, []float64{1.0, -2.5})})
	const want = 0x4eb31a783cfb99d5 // regenerate only on a deliberate wire version bump
	if got := RefSum(ref); got != want {
		t.Fatalf("RefSum = %016x, want %016x", got, want)
	}
	if RefSum(nil) != 0 {
		t.Fatal("RefSum(nil) must be 0 (absolute blob marker)")
	}
	// The per-tensor pass is XXH64 itself: the published digest of the
	// empty input at seed 0, and a seeded input with four-lane stripes and
	// a tail.
	if got := xxh64Words(0, nil); got != 0xef46db3751d8e999 {
		t.Fatalf("xxh64Words(0, nil) = %016x, want the XXH64 empty digest ef46db3751d8e999", got)
	}
	if got := xxh64Words(0x1234, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 0x1a0a5a2bf835e279 {
		t.Fatalf("xxh64Words(0x1234, 1..9) = %016x, want 1a0a5a2bf835e279", got)
	}
}

// fnvOverWords is FNV-1a taken a 64-bit word at a time: the cheap word-wide
// hash that does not do. Flipping the top bit of a word flips only the top
// bit of the state, which the odd multiplier keeps, so two flips cancel.
func fnvOverWords(vals []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// RefSum changes under every edit a stale or misrouted reference makes: the
// sign (top) bit flipped in two words, in one lane and across lanes and the
// tail; two elements swapped; two tensors' contents swapped; a tensor
// renamed; one value moved across a tensor boundary.
func TestRefSumDetects(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	a, b := vals(10), vals(10)
	set := func(names []string, data ...[]float64) *nn.Params {
		mats := make([]*mat.Dense, len(data))
		for i, d := range data {
			mats[i] = mat.NewFromData(1, len(d), append([]float64(nil), d...))
		}
		return paramsFrom(names, mats)
	}
	base := RefSum(set([]string{"a", "b"}, a, b))
	edited := func(edit func(x []float64)) []float64 {
		x := append([]float64(nil), a...)
		edit(x)
		return x
	}
	flip := func(i, j int) func([]float64) {
		return func(x []float64) { x[i], x[j] = -x[i], -x[j] }
	}
	swap := func(i, j int) func([]float64) {
		return func(x []float64) { x[i], x[j] = x[j], x[i] }
	}
	cases := map[string]*nn.Params{}
	// 0 and 4 share a lane, 0 and 1 do not, 8 and 9 are the tail.
	for _, ij := range [][2]int{{0, 4}, {0, 1}, {3, 8}, {8, 9}} {
		i, j := ij[0], ij[1]
		cases[fmt.Sprintf("top bit of words %d and %d", i, j)] = set([]string{"a", "b"}, edited(flip(i, j)), b)
		cases[fmt.Sprintf("elements %d and %d swapped", i, j)] = set([]string{"a", "b"}, edited(swap(i, j)), b)
		if x := edited(flip(i, j)); fnvOverWords(x) != fnvOverWords(a) {
			t.Fatalf("top bits of %d and %d: FNV over words was meant to cancel", i, j)
		}
	}
	ab := append([]float64(nil), a...)
	ab[0] = -ab[0]
	bb := append([]float64(nil), b...)
	bb[0] = -bb[0]
	cases["top bit of a word in each tensor"] = set([]string{"a", "b"}, ab, bb)
	cases["tensors' contents swapped"] = set([]string{"a", "b"}, b, a)
	cases["tensor renamed"] = set([]string{"a", "c"}, a, b)
	cases["value moved across the boundary"] = set([]string{"a", "b"}, a[:9], append([]float64{a[9]}, b...))
	for name, p := range cases {
		if RefSum(p) == base {
			t.Errorf("%s: RefSum unchanged", name)
		}
	}
}

// Compression sanity: after a small perturbation the XOR delta and the
// quantized tiers must land well under the raw 8 bytes/element.
func TestEncodedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Model-sized tensors so the per-frame headers amortize away.
	ref := nn.NewParams()
	for _, s := range []struct {
		name string
		r, c int
	}{{"w0", 128, 64}, {"b0", 1, 64}, {"w1", 64, 16}, {"b1", 1, 16}} {
		m := mat.New(s.r, s.c)
		d := m.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		ref.Add(s.name, m)
	}
	p := perturb(rng, ref, 1e-4)
	raw := p.Bytes()
	for _, c := range []struct {
		opts Options
		max  float64 // fraction of raw
	}{
		{Options{Kind: Float32}, 0.55},
		{Options{Kind: Quant, Bits: 8}, 0.20},
		{Options{Kind: Quant, Bits: 4}, 0.15},
		{Options{Kind: Quant, Bits: 8, TopK: 0.1}, 0.15},
	} {
		blob, err := NewEncoder(c.opts).EncodeParams(nil, p, ref)
		if err != nil {
			t.Fatal(err)
		}
		if frac := float64(len(blob)) / float64(raw); frac > c.max {
			t.Errorf("%s: blob is %.2f of raw, want ≤ %.2f", c.opts.Name(), frac, c.max)
		}
	}
}

// A Ref carries its set's RefSum, and encoding or decoding against it gives
// exactly the bytes and values of the *nn.Params entry points, which hash
// the reference themselves.
func TestRefMatchesParamsEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ref := randParams(rng, 1)
	p := perturb(rng, ref, 0.05)
	r := NewRef(ref)
	if r.Params() != ref || r.sum != RefSum(ref) {
		t.Fatal("NewRef does not pair the set with its RefSum")
	}
	if (NewRef(nil) != Ref{}) {
		t.Fatal("NewRef(nil) is not the zero Ref")
	}
	for _, o := range []Options{{Kind: Delta}, {Kind: Quant, Bits: 8}} {
		viaParams, err := NewEncoder(o).EncodeParams(nil, p, ref)
		if err != nil {
			t.Fatal(err)
		}
		viaRef, err := NewEncoder(o).EncodeRef(nil, p, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaParams, viaRef) {
			t.Fatalf("%s: EncodeRef and EncodeParams disagree", o.Name())
		}
		a, err := DecodeParams(viaRef, ref)
		if err != nil {
			t.Fatal(err)
		}
		b, absolute, err := DecodeParamsTraced(viaRef, r, nil, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if absolute {
			t.Fatalf("%s: a blob encoded against a reference decoded as absolute", o.Name())
		}
		for i := 0; i < a.Len(); i++ {
			if !a.At(i).Equal(b.At(i)) {
				t.Fatalf("%s: DecodeParamsTraced and DecodeParams disagree on %s", o.Name(), a.Names()[i])
			}
		}
		PutParams(a)
		PutParams(b)
	}
	// A blob names its reference by checksum: a Ref of another set, or the
	// zero Ref, must refuse it.
	blob, err := NewEncoder(Options{Kind: Delta}).EncodeRef(nil, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeParamsTraced(blob, NewRef(perturb(rng, ref, 0.05)), nil, obs.SpanContext{}); err == nil {
		t.Fatal("decode against another set's Ref succeeded")
	}
	if _, _, err := DecodeParamsTraced(blob, Ref{}, nil, obs.SpanContext{}); err == nil {
		t.Fatal("decode against the zero Ref succeeded")
	}
	// An absolute blob decodes against any Ref and says so.
	abs, err := NewEncoder(Options{Kind: Delta}).EncodeRef(nil, p, Ref{})
	if err != nil {
		t.Fatal(err)
	}
	if _, absolute, err := DecodeParamsTraced(abs, r, nil, obs.SpanContext{}); err != nil || !absolute {
		t.Fatalf("absolute blob: absolute=%v err=%v", absolute, err)
	}
}

// An absolute blob (checksum 0) whose frame claims a delta mode is refused,
// not decoded against a missing reference.
func TestDeltaFrameInAbsoluteBlobRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := randParams(rng, 1)
	blob, err := NewEncoder(Options{Kind: Delta}).EncodeParams(nil, perturb(rng, ref, 0.05), ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 16; i++ {
		blob[i] = 0 // claim no reference
	}
	if _, err := DecodeParams(blob, nil); err == nil {
		t.Fatal("delta frame decoded without a reference")
	}
}

// appendXorBodyBytewise and decodeXorBodyBytewise are the byte-at-a-time
// XOR body coder the word-wide appendXorBody and decodeXorBody replaced,
// kept as the oracle they must match byte for byte, bit for bit and error
// for error.
func appendXorBodyBytewise(dst []byte, cur, ref []float64) []byte {
	n := len(cur)
	nibOff := len(dst)
	dst = append(dst, make([]byte, (n+1)/2)...)
	for i := 0; i < n; i++ {
		x := math.Float64bits(cur[i]) ^ math.Float64bits(ref[i])
		sig := (71 - bits.LeadingZeros64(x)) / 8
		if i&1 == 0 {
			dst[nibOff+i/2] |= byte(sig)
		} else {
			dst[nibOff+i/2] |= byte(sig) << 4
		}
		for j := 0; j < sig; j++ {
			dst = append(dst, byte(x>>(8*j)))
		}
	}
	return dst
}

func decodeXorBodyBytewise(body []byte, ref, out []float64) error {
	n := len(out)
	nib := (n + 1) / 2
	if len(body) < nib {
		return fmt.Errorf("codec: xor body truncated: %d bytes, need %d-byte nibble table", len(body), nib)
	}
	pos := nib
	for i := 0; i < n; i++ {
		var sig int
		if i&1 == 0 {
			sig = int(body[i/2] & 0x0F)
		} else {
			sig = int(body[i/2] >> 4)
		}
		if pos+sig > len(body) {
			return fmt.Errorf("codec: xor body truncated at element %d", i)
		}
		var x uint64
		for j := 0; j < sig; j++ {
			x |= uint64(body[pos+j]) << (8 * j)
		}
		pos += sig
		out[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ x)
	}
	if pos != len(body) {
		return fmt.Errorf("codec: %d trailing bytes after xor body", len(body)-pos)
	}
	return nil
}

// xorPair builds a (cur, ref) pair of length n that covers every
// significant-byte count: identical elements, sign flips, NaN payloads,
// infinities, one-ulp steps and random drift.
func xorPair(rng *rand.Rand, n int) (cur, ref []float64) {
	cur, ref = make([]float64, n), make([]float64, n)
	for i := range ref {
		r := rng.NormFloat64()
		ref[i] = r
		switch i % 7 {
		case 0:
			cur[i] = r // identical: no significant bytes
		case 1:
			cur[i] = -r // sign flip: the top byte only, so all 8
		case 2:
			cur[i] = math.Float64frombits(0x7FF8_0000_0000_0000 | rng.Uint64()&0x000F_FFFF_FFFF_FFFF) // NaN payload
			if i%3 == 0 {
				ref[i] = math.Float64frombits(0xFFF0_0000_0000_0001) // a NaN reference
			}
		case 3:
			cur[i] = math.Float64frombits(math.Float64bits(r) + 1) // one ulp
		case 4:
			cur[i] = math.Inf(1 - 2*(i&1))
		default:
			cur[i] = r + 1e-3*rng.NormFloat64()
		}
	}
	return cur, ref
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// The word-wide XOR coder writes the oracle's bytes, after a non-empty dst
// prefix too, and reads them back to the same bits, for lengths around the
// 8-byte word and the nibble pairing and for a model-sized tensor.
func TestXorBodyMatchesBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 97000} {
		cur, ref := xorPair(rng, n)
		prefix := []byte{0xAA, 0xBB, 0xCC}
		want := appendXorBodyBytewise(append([]byte(nil), prefix...), cur, ref)
		// A recycled dst whose spare capacity holds junk must not leak it.
		junk := bytes.Repeat([]byte{0xFF}, len(want)+8*n+64)
		got := appendXorBody(append(junk[:0], prefix...), cur, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: appendXorBody differs from the bytewise oracle", n)
		}
		body := want[len(prefix):]
		gotOut, wantOut := make([]float64, n), make([]float64, n)
		if err := decodeXorBody(body, ref, gotOut); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if err := decodeXorBodyBytewise(body, ref, wantOut); err != nil {
			t.Fatalf("n=%d: oracle decode: %v", n, err)
		}
		if !sameBits(gotOut, wantOut) || !sameBits(gotOut, cur) {
			t.Fatalf("n=%d: decoded bits differ from the oracle's or from the input", n)
		}
	}
}

// Every truncation of a body, and every over-long one, gives the oracle's
// error: the word-wide decoder falls back to bytes near the end and checks
// each element's length before it reads.
func TestXorBodyErrorsMatchBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 7, 8, 9, 97000} {
		cur, ref := xorPair(rng, n)
		body := appendXorBodyBytewise(nil, cur, ref)
		cuts := []int{}
		for c := 0; c < len(body); c++ {
			if n < 100 || c < 64 || len(body)-c < 64 || c%9973 == 0 {
				cuts = append(cuts, c)
			}
		}
		for _, c := range cuts {
			gotErr := decodeXorBody(body[:c], ref, make([]float64, n))
			wantErr := decodeXorBodyBytewise(body[:c], ref, make([]float64, n))
			if wantErr == nil || errText(gotErr) != errText(wantErr) {
				t.Fatalf("n=%d, %d of %d bytes: error %q, oracle %q", n, c, len(body), errText(gotErr), errText(wantErr))
			}
		}
		long := append(append([]byte(nil), body...), 1, 2, 3)
		gotErr := decodeXorBody(long, ref, make([]float64, n))
		wantErr := decodeXorBodyBytewise(long, ref, make([]float64, n))
		if wantErr == nil || errText(gotErr) != errText(wantErr) {
			t.Fatalf("n=%d, trailing bytes: error %q, oracle %q", n, errText(gotErr), errText(wantErr))
		}
	}
}

// A crafted nibble of 9..15 claims more than a word: both readers consume
// that many bytes and keep the low 8, wherever in the body it falls.
func TestXorBodyHostileNibblesMatchBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 14
	for tail := 0; tail <= 16; tail++ {
		body := make([]byte, n/2)
		for i := 0; i < n; i++ {
			body[i/2] |= byte(2+i) << (4 * (i & 1)) // 2..15
		}
		payload := 0
		for i := 0; i < n; i++ {
			payload += 2 + i
		}
		for i := 0; i < payload; i++ {
			body = append(body, byte(rng.Intn(256)))
		}
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		// Shift the long elements toward the end by trimming the payload,
		// so some fall in the byte-wise tail and some error out.
		body = body[:len(body)-tail]
		got, want := make([]float64, n), make([]float64, n)
		gotErr := decodeXorBody(body, ref, got)
		wantErr := decodeXorBodyBytewise(body, ref, want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("tail %d: error %q, oracle %q", tail, errText(gotErr), errText(wantErr))
		}
		if wantErr == nil && !sameBits(got, want) {
			t.Fatalf("tail %d: decoded bits differ from the oracle's", tail)
		}
	}
}

// BenchmarkXorBody times the XOR body coder on a model-sized tensor one
// round of drift apart, against the bytewise oracle:
//
//	go test -run '^$' -bench XorBody ./internal/codec
func BenchmarkXorBody(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const n = 97000
	ref, cur := make([]float64, n), make([]float64, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
		cur[i] = ref[i] + 1e-3*rng.NormFloat64()
	}
	body := appendXorBody(nil, cur, ref)
	out := make([]float64, n)
	dst := make([]byte, 0, len(body)+8*n)
	for _, c := range []struct {
		name   string
		encode func([]byte, []float64, []float64) []byte
		decode func([]byte, []float64, []float64) error
	}{{"word", appendXorBody, decodeXorBody}, {"bytewise", appendXorBodyBytewise, decodeXorBodyBytewise}} {
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				dst = c.encode(dst[:0], cur, ref)
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if err := c.decode(body, ref, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// multiPassEncoder is the lossy uplink encoder the one-pass encodeLossy
// replaced, kept as the oracle it must match byte for byte and residual for
// residual. It makes separate passes for the delta, the residual add, the
// range, the quantise-and-reconstruct and the residual store, over two
// n-sized scratch slices, and appends one body value at a time.
type multiPassEncoder struct {
	opts         Options
	residual     map[string][]float64
	delta, recon []float64
}

func newMultiPassEncoder(o Options) *multiPassEncoder {
	return &multiPassEncoder{opts: o, residual: map[string][]float64{}}
}

// encode appends the blob of p against ref, as EncodeRef does.
func (e *multiPassEncoder) encode(dst []byte, p *nn.Params, ref Ref) []byte {
	dst = append(dst, blobMagic, blobVersion, byte(e.opts.Kind), byte(e.opts.Bits))
	dst = appendU32(dst, uint32(p.Len()))
	dst = appendU64(dst, ref.sum)
	for i, name := range p.Names() {
		cur := p.At(i)
		hdr := len(dst)
		dst = appendU32(dst, 0)
		dst = appendU32(dst, uint32(cur.Rows()))
		dst = appendU32(dst, uint32(cur.Cols()))
		dst = append(dst, 0, byte(len(name)))
		dst = append(dst, name...)
		bodyStart := len(dst)
		var refT *mat.Dense
		if ref.params != nil {
			refT = ref.params.Get(name)
		}
		mode := modeRawF64
		if refT == nil || !finite(cur.Data()) {
			delete(e.residual, name)
			for _, v := range cur.Data() {
				dst = appendF64(dst, v)
			}
		} else {
			dst, mode = e.encodeLossy(dst, name, cur.Data(), refT.Data(), cur.Cols())
		}
		dst[hdr+12] = mode
		binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(dst)-bodyStart))
	}
	return dst
}

func (e *multiPassEncoder) encodeLossy(dst []byte, name string, cur, ref []float64, cols int) ([]byte, byte) {
	n := len(cur)
	if cap(e.delta) < n {
		e.delta, e.recon = make([]float64, n), make([]float64, n)
	}
	e.delta, e.recon = e.delta[:n], e.recon[:n]
	v := e.delta
	for i := range v {
		v[i] = cur[i] - ref[i]
	}
	r, hasResidual := e.residual[name]
	if hasResidual {
		for i := range v {
			v[i] += r[i]
		}
	}
	var mode byte
	if e.opts.TopK > 0 {
		mode = modeTopK
		k := int(math.Ceil(e.opts.TopK * float64(n)))
		if k > n {
			k = n
		}
		inner := modeRawF64
		switch e.opts.Kind {
		case Float32:
			inner = modeF32
		case Quant:
			inner = modeQuant
		}
		for i := range e.recon {
			e.recon[i] = 0
		}
		dst = appendTopKBodyMultiPass(dst, v, cols, k, inner, e.opts.Bits, e.recon)
	} else if e.opts.Kind == Float32 {
		mode = modeF32
		dst = appendF32BodyMultiPass(dst, v, e.recon)
	} else {
		mode = modeQuant
		dst = appendQuantBodyMultiPass(dst, v, e.opts.Bits, e.recon)
	}
	if !hasResidual {
		r = make([]float64, n)
		e.residual[name] = r
	}
	for i := range r {
		r[i] = v[i] - e.recon[i]
	}
	return dst, mode
}

func appendF32BodyMultiPass(dst []byte, vals, recon []float64) []byte {
	for i, v := range vals {
		f := float32(v)
		dst = appendU32(dst, math.Float32bits(f))
		recon[i] = float64(f)
	}
	return dst
}

func appendQuantBodyMultiPass(dst []byte, vals []float64, qbits int, recon []float64) []byte {
	if len(vals) == 0 {
		return appendF64(appendF64(dst, 0), 0)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	levels := float64(uint64(1)<<qbits - 1)
	scale := (hi - lo) / levels
	dst = appendF64(dst, lo)
	dst = appendF64(dst, scale)
	quantize := func(v float64) uint64 {
		if scale <= 0 {
			return 0
		}
		q := math.Round((v - lo) / scale)
		if q < 0 {
			q = 0
		} else if q > levels {
			q = levels
		}
		return uint64(q)
	}
	if qbits == 8 {
		for i, v := range vals {
			q := quantize(v)
			dst = append(dst, byte(q))
			recon[i] = lo + scale*float64(q)
		}
		return dst
	}
	for i := 0; i < len(vals); i += 2 {
		q0 := quantize(vals[i])
		b := byte(q0)
		recon[i] = lo + scale*float64(q0)
		if i+1 < len(vals) {
			q1 := quantize(vals[i+1])
			b |= byte(q1) << 4
			recon[i+1] = lo + scale*float64(q1)
		}
		dst = append(dst, b)
	}
	return dst
}

func appendTopKBodyMultiPass(dst []byte, vals []float64, cols, k int, inner byte, qbits int, recon []float64) []byte {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(vals[idx[a]]), math.Abs(vals[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	idx = idx[:k]
	sort.Ints(idx)
	coords := make([]sparse.Coord, k)
	for i, flat := range idx {
		coords[i] = sparse.Coord{Row: flat / cols, Col: flat % cols, Val: vals[flat]}
	}
	dst = append(dst, inner)
	dst = appendU32(dst, uint32(len(coords)))
	kept := make([]float64, len(coords))
	for i, c := range coords {
		dst = appendU32(dst, uint32(c.Row*cols+c.Col))
		kept[i] = c.Val
	}
	keptRecon := make([]float64, len(kept))
	switch inner {
	case modeRawF64:
		for _, v := range kept {
			dst = appendF64(dst, v)
		}
		copy(keptRecon, kept)
	case modeF32:
		dst = appendF32BodyMultiPass(dst, kept, keptRecon)
	case modeQuant:
		dst = appendQuantBodyMultiPass(dst, kept, qbits, keptRecon)
	}
	for i, c := range coords {
		recon[c.Row*cols+c.Col] = keptRecon[i]
	}
	return dst
}

// lossyRound returns one round's reference and upload: drifting tensors of
// 0, 1, 2, 3 and 97,000 elements, a constant delta (scale 0), and deltas of
// −0 that a zero residual added to them would turn into +0.
func lossyRound(rng *rand.Rand) (ref, cur *nn.Params) {
	ref, cur = nn.NewParams(), nn.NewParams()
	add := func(name string, r, c []float64) {
		ref.Add(name, mat.NewFromData(1, len(r), r))
		cur.Add(name, mat.NewFromData(1, len(c), c))
	}
	for _, n := range []int{0, 1, 2, 3, 97000} {
		r, c := make([]float64, n), make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
			c[i] = r[i] + 1e-3*rng.NormFloat64()
		}
		add(fmt.Sprintf("drift%d", n), r, c)
	}
	r, c := make([]float64, 7), make([]float64, 7)
	for i := range r {
		r[i] = float64(rng.Intn(8))
		c[i] = r[i] + 0.5
	}
	add("constant", r, c)
	negZero := math.Copysign(0, -1)
	add("negzero", []float64{0, 0, 0, 0}, []float64{negZero, 0, negZero, 1e-3 * rng.NormFloat64()})
	add("negzero_const", []float64{0, 0, 0}, []float64{negZero, negZero, negZero})
	return ref, cur
}

// The one-pass lossy encoder writes the multi-pass oracle's blob and leaves
// its residuals bit for bit, over five error-feedback rounds (the first
// without a residual), on every lossy tier, into a recycled dst whose spare
// capacity holds junk.
func TestLossyEncodeMatchesMultiPassOracle(t *testing.T) {
	for _, o := range []Options{
		{Kind: Quant, Bits: 8}, {Kind: Quant, Bits: 4}, {Kind: Float32},
		{Kind: Quant, Bits: 8, TopK: 0.1}, {Kind: Quant, Bits: 4, TopK: 0.25},
		{Kind: Float32, TopK: 0.1}, {Kind: Delta, TopK: 0.1},
	} {
		rng := rand.New(rand.NewSource(25))
		got, want := NewEncoder(o), newMultiPassEncoder(o)
		prefix := []byte{0xAA, 0xBB, 0xCC}
		for round := 0; round < 5; round++ {
			ref, cur := lossyRound(rng)
			r := NewRef(ref)
			wantBlob := want.encode(append([]byte(nil), prefix...), cur, r)
			junk := bytes.Repeat([]byte{0xFF}, len(wantBlob)+64)
			gotBlob, err := got.EncodeRef(append(junk[:0], prefix...), cur, r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Fatalf("%s round %d: blob differs from the multi-pass oracle's", o.Name(), round)
			}
			if len(got.residual) != len(want.residual) {
				t.Fatalf("%s round %d: %d residuals, oracle %d", o.Name(), round, len(got.residual), len(want.residual))
			}
			for name, w := range want.residual {
				if !sameBits(got.residual[name], w) {
					t.Fatalf("%s round %d: residual %q differs from the oracle's", o.Name(), round, name)
				}
			}
		}
	}
}

// A finite upload whose compensated delta, or its lossy reconstruction,
// overflows goes absolute and drops its residual: it decodes exactly, and
// the benign rounds after it decode finite and close, where a residual
// holding the overflow would make every later round decode NaN. The q8
// probe spans more than the float64 range (hi − lo = +Inf); the float32
// probe is a delta float32 cannot hold. Top-k drops entries by design, so
// its benign rounds need only be finite.
func TestLossyOverflowDoesNotPoisonResidual(t *testing.T) {
	for _, c := range []struct {
		opts  Options
		probe []float64
	}{
		{Options{Kind: Quant, Bits: 8}, []float64{-9e307, 9e307, 0}},
		{Options{Kind: Float32}, []float64{1e39, 0, 0}},
		{Options{Kind: Quant, Bits: 8, TopK: 0.5}, []float64{-9e307, 9e307, 0}},
	} {
		ref := paramsFrom([]string{"w"}, []*mat.Dense{mat.New(1, 3)})
		enc := NewEncoder(c.opts)
		upload := func(vals []float64) []float64 {
			p := paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 3, append([]float64(nil), vals...))})
			blob, err := enc.EncodeParams(nil, p, ref)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeParams(blob, ref)
			if err != nil {
				t.Fatal(err)
			}
			out := append([]float64(nil), dec.At(0).Data()...)
			PutParams(dec)
			return out
		}
		if got := upload(c.probe); !sameBits(got, c.probe) {
			t.Fatalf("%s: overflowing upload decoded as %v, want %v exactly", c.opts.Name(), got, c.probe)
		}
		if r, ok := enc.residual["w"]; ok {
			t.Fatalf("%s: overflowing upload left residual %v", c.opts.Name(), r)
		}
		benign := []float64{1, 2, 3}
		for round := 0; round < 3; round++ {
			for j, v := range upload(benign) {
				if math.IsNaN(v) || math.IsInf(v, 0) || c.opts.TopK == 0 && math.Abs(v-benign[j]) > 0.05 {
					t.Fatalf("%s: benign round %d decoded [%d] = %v, want about %v", c.opts.Name(), round, j, v, benign[j])
				}
			}
		}
	}
}

// EncodeRef into a dst with room takes nothing from the heap for the blob,
// which lets the transport's party encode every upload into one buffer; the
// one allocation left is the copy of the tensor names.
func TestEncodeRefIntoReusedDstAllocatesOnlyNames(t *testing.T) {
	cur, ref := benchRound(4096)
	for _, o := range []Options{{Kind: Delta}, {Kind: Float32}, {Kind: Quant, Bits: 8}, {Kind: Quant, Bits: 4}} {
		enc := NewEncoder(o)
		dst, err := enc.EncodeRef(nil, cur, ref)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst, err = enc.EncodeRef(dst[:0], cur, ref)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 1 {
			t.Fatalf("%s: EncodeRef into a reused dst allocated %v times, want 1 (the name list)", o.Name(), allocs)
		}
	}
}

// benchRound is one model-sized tensor one round of drift from its
// reference.
func benchRound(n int) (cur *nn.Params, ref Ref) {
	rng := rand.New(rand.NewSource(26))
	r, c := make([]float64, n), make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
		c[i] = r[i] + 1e-3*rng.NormFloat64()
	}
	cur = paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, n, c)})
	return cur, NewRef(paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, n, r)}))
}

// BenchmarkRefSum times the reference checksum of a model-sized tensor:
//
//	go test -run '^$' -bench RefSum ./internal/codec
func BenchmarkRefSum(b *testing.B) {
	const n = 97000
	_, ref := benchRound(n)
	var sink uint64
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		sink ^= RefSum(ref.Params())
	}
	_ = sink
}

// BenchmarkEncodeQuant times one error-feedback round of the q8 and q4
// uplink encoder on a model-sized tensor, one-pass against the multi-pass
// oracle, each into a reused dst:
//
//	go test -run '^$' -bench EncodeQuant ./internal/codec
func BenchmarkEncodeQuant(b *testing.B) {
	const n = 97000
	cur, ref := benchRound(n)
	for _, qbits := range []int{8, 4} {
		o := Options{Kind: Quant, Bits: qbits}
		onePass, multiPass := NewEncoder(o), newMultiPassEncoder(o)
		var dst []byte
		b.Run(fmt.Sprintf("q%d/onepass", qbits), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = onePass.EncodeRef(dst[:0], cur, ref); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("q%d/multipass", qbits), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				dst = multiPass.encode(dst[:0], cur, ref)
			}
		})
	}
}

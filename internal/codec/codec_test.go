package codec

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
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

// Golden wire-format test: the v1 byte layout is pinned so a future change
// to the framing is a deliberate version bump, not a silent break.
func TestGoldenWireFormat(t *testing.T) {
	w := mat.NewFromData(1, 3, []float64{1.0, -2.5, 0.5})
	p := paramsFrom([]string{"w"}, []*mat.Dense{w})

	// Absolute blob (no reference): one raw-float64 frame.
	blob, err := NewEncoder(Options{Kind: Delta}).EncodeParams(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAbs := "" +
		"fd010100" + "01000000" + "0000000000000000" + // header: magic, v1, kind=delta, bits=0, count=1, refsum=0
		"18000000" + "01000000" + "03000000" + "00" + "01" + "77" + // frame: 24-byte body, 1x3, mode=raw, name "w"
		"000000000000f03f" + "00000000000004c0" + "000000000000e03f" // 1.0, -2.5, 0.5 LE
	if got := hex.EncodeToString(blob); got != wantAbs {
		t.Fatalf("absolute blob drifted from the pinned v1 layout:\n got %s\nwant %s", got, wantAbs)
	}

	// Delta blob: same tensor against a reference differing only in the
	// last element (0.5 → 0.75 flips one exponent-area byte).
	ref := paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 3, []float64{1.0, -2.5, 0.75})})
	blob, err = NewEncoder(Options{Kind: Delta}).EncodeParams(nil, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	refsum := RefSum(ref)
	head := blob[:8]
	wantHead := "fd010100" + "01000000"
	if got := hex.EncodeToString(head); got != wantHead {
		t.Fatalf("delta blob header drifted: got %s want %s", got, wantHead)
	}
	var sumBytes [8]byte
	for i := range sumBytes {
		sumBytes[i] = byte(refsum >> (8 * i))
	}
	if !bytes.Equal(blob[8:16], sumBytes[:]) {
		t.Fatalf("refsum field %x does not match RefSum %016x", blob[8:16], refsum)
	}
	wantFrame := "09000000" + "01000000" + "03000000" + "01" + "01" + "77" + // 9-byte body, 1x3, mode=xor, "w"
		"0007" + // nibble table: elements 0,1 identical (0 bytes), element 2 has 7 significant bytes
		"00000000000008" // xor of 0.5 and 0.75 bit patterns, low bytes first
	if got := hex.EncodeToString(blob[16:]); got != wantFrame {
		t.Fatalf("xor frame drifted from the pinned v1 layout:\n got %s\nwant %s", got, wantFrame)
	}

	// Decode both ways to prove the pinned bytes are live, not a fossil.
	dec, err := DecodeParams(blob, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.At(0).Equal(w) {
		t.Fatal("pinned delta blob decodes to the wrong values")
	}
	PutParams(dec)
}

// The refsum definition itself is pinned: it is half of the wire contract
// (both peers must hash references identically forever).
func TestGoldenRefSum(t *testing.T) {
	ref := paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 2, []float64{1.0, -2.5})})
	const want = 0x3a36ef4153fecdc3 // regenerate only on a deliberate wire version bump
	if got := RefSum(ref); got != want {
		t.Fatalf("RefSum = %016x, want %016x", got, want)
	}
	if RefSum(nil) != 0 {
		t.Fatal("RefSum(nil) must be 0 (absolute blob marker)")
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
		b, err := DecodeParamsTraced(viaRef, r, nil, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
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
	if _, err := DecodeParamsTraced(blob, NewRef(perturb(rng, ref, 0.05)), nil, obs.SpanContext{}); err == nil {
		t.Fatal("decode against another set's Ref succeeded")
	}
	if _, err := DecodeParamsTraced(blob, Ref{}, nil, obs.SpanContext{}); err == nil {
		t.Fatal("decode against the zero Ref succeeded")
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

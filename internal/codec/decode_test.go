package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The lossy body decoders add the reference as they write each element.
// The test below pins them to the decode they replaced, kept here: the
// body's values written alone (top-k's into a cleared buffer), then the
// reference added in a second pass. The raw and XOR modes add no reference
// and are not involved.

func decodeF32BodyPlain(body []byte, out []float64) error {
	if len(body) != 4*len(out) {
		return fmt.Errorf("codec: float32 body is %d bytes, want %d", len(body), 4*len(out))
	}
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
	}
	return nil
}

func decodeQuantBodyPlain(body []byte, qbits int, out []float64) error {
	if len(body) != quantBodyLen(len(out), qbits) {
		return fmt.Errorf("codec: quant body is %d bytes, want %d", len(body), quantBodyLen(len(out), qbits))
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(body))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	idx := body[16:]
	if qbits == 8 {
		for i := range out {
			out[i] = lo + scale*float64(idx[i])
		}
		return nil
	}
	for i := range out {
		b := idx[i/2]
		if i&1 == 0 {
			b &= 0x0F
		} else {
			b >>= 4
		}
		out[i] = lo + scale*float64(b)
	}
	return nil
}

func decodeTopKBodyPlain(body []byte, qbits int, out []float64) error {
	if len(body) < 5 {
		return fmt.Errorf("codec: top-k body is %d bytes, want at least 5", len(body))
	}
	inner := body[0]
	k := int(binary.LittleEndian.Uint32(body[1:]))
	if k > len(out) {
		return fmt.Errorf("codec: top-k keeps %d of %d entries", k, len(out))
	}
	if len(body) < 5+4*k {
		return fmt.Errorf("codec: top-k index table truncated")
	}
	vals := make([]float64, k)
	var err error
	switch inner {
	case modeRawF64:
		err = decodeRawF64Body(body[5+4*k:], vals)
	case modeF32:
		err = decodeF32BodyPlain(body[5+4*k:], vals)
	case modeQuant:
		err = decodeQuantBodyPlain(body[5+4*k:], qbits, vals)
	default:
		err = fmt.Errorf("codec: unknown top-k inner mode %d", inner)
	}
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		flat := int(binary.LittleEndian.Uint32(body[5+4*i:]))
		if flat >= len(out) {
			return fmt.Errorf("codec: top-k index %d out of range %d", flat, len(out))
		}
		out[flat] = vals[i]
	}
	return nil
}

// decodeThenAdd is the two-pass oracle for one lossy frame.
func decodeThenAdd(mode byte, body []byte, qbits int, ref, out []float64) error {
	var err error
	switch mode {
	case modeF32:
		err = decodeF32BodyPlain(body, out)
	case modeQuant:
		err = decodeQuantBodyPlain(body, qbits, out)
	case modeTopK:
		clear(out)
		err = decodeTopKBodyPlain(body, qbits, out)
	}
	for i := range out {
		out[i] += ref[i]
	}
	return err
}

// decodeFused is decodeRef's dispatch for one lossy frame.
func decodeFused(mode byte, body []byte, qbits int, ref, out []float64) error {
	switch mode {
	case modeF32:
		return decodeF32Body(body, ref, out)
	case modeQuant:
		return decodeQuantBody(body, qbits, ref, out)
	default:
		return decodeTopKBody(body, qbits, ref, out)
	}
}

// lossyFrame is one frame body to decode against a reference.
type lossyFrame struct {
	name  string
	mode  byte
	qbits int
	body  []byte
}

// lossyFrames returns, for a tensor of len(v) elements, the encoders' f32,
// q8 and q4 bodies of v, their top-k bodies over every inner mode, and
// hand-made bodies the encoders never write: float32 words for NaN, ±Inf
// and −0, a quant header of −0 offset and −0 step, and a top-k table
// listing an index twice and out of order.
func lossyFrames(v []float64) []lossyFrame {
	n := len(v)
	lo, hi := 0.0, 0.0
	if n > 0 {
		lo, hi = v[0], v[0]
		for _, x := range v[1:] {
			lo, hi = widen(lo, hi, x)
		}
	}
	tmp := func() []float64 { return append([]float64(nil), v...) }
	var fr []lossyFrame
	f32, _ := appendF32Body(nil, tmp())
	fr = append(fr, lossyFrame{"f32", modeF32, 0, f32})
	for _, q := range []int{8, 4} {
		body, _ := appendQuantBody(nil, tmp(), lo, hi, q)
		fr = append(fr, lossyFrame{fmt.Sprintf("q%d", q), modeQuant, q, body})
	}
	k := n / 3
	for _, in := range []struct {
		name  string
		mode  byte
		qbits int
	}{{"raw", modeRawF64, 0}, {"f32", modeF32, 0}, {"q8", modeQuant, 8}, {"q4", modeQuant, 4}} {
		body, _ := appendTopKBody(nil, tmp(), k, in.mode, in.qbits)
		fr = append(fr, lossyFrame{"topk-" + in.name, modeTopK, in.qbits, body})
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	odd := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		f := float32(v[i])
		if i%3 == 0 {
			f = specials[(i/3)%len(specials)]
		}
		binary.LittleEndian.PutUint32(odd[4*i:], math.Float32bits(f))
	}
	fr = append(fr, lossyFrame{"f32-specials", modeF32, 0, odd})
	negZero := make([]byte, quantBodyLen(n, 8))
	binary.LittleEndian.PutUint64(negZero, math.Float64bits(math.Copysign(0, -1)))
	binary.LittleEndian.PutUint64(negZero[8:], math.Float64bits(math.Copysign(0, -1)))
	for i := range negZero[16:] {
		negZero[16+i] = byte(i)
	}
	fr = append(fr, lossyFrame{"q8-negzero", modeQuant, 8, negZero})
	if n >= 2 {
		dup := []byte{modeRawF64}
		dup = appendU32(dup, 3)
		for _, flat := range []uint32{uint32(n - 1), 0, uint32(n - 1)} {
			dup = appendU32(dup, flat)
		}
		for _, x := range []float64{1.5, math.Copysign(0, -1), -2.25} {
			dup = appendF64(dup, x)
		}
		fr = append(fr, lossyFrame{"topk-dup", modeTopK, 0, dup})
	}
	return fr
}

// TestFusedDecodeMatchesDecodeThenAdd: every lossy frame mode decodes to
// the two-pass result bit for bit (any two NaNs count as equal), over
// references carrying NaN, ±Inf, −0 and negatives, into a junk-filled
// buffer.
func TestFusedDecodeMatchesDecodeThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{0, 1, 2, 3, 7, 97, 1000} {
		ref, v := make([]float64, n), make([]float64, n)
		for i := range ref {
			switch i % 11 {
			case 1:
				ref[i] = negZero
			case 4:
				ref[i] = math.NaN()
			case 6:
				ref[i] = math.Inf(1 - 2*(i%2))
			default:
				ref[i] = 2 * rng.NormFloat64()
			}
			v[i] = 1e-3 * rng.NormFloat64()
			if i%5 == 2 {
				v[i] = negZero
			}
		}
		for _, f := range lossyFrames(v) {
			name := fmt.Sprintf("n%d/%s", n, f.name)
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = 1e300, 1e300
			}
			gerr := decodeFused(f.mode, f.body, f.qbits, ref, got)
			werr := decodeThenAdd(f.mode, f.body, f.qbits, ref, want)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: fused error %v, two-pass error %v", name, gerr, werr)
			}
			if werr != nil {
				continue
			}
			for i, w := range want {
				if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
					t.Fatalf("%s[%d]: fused %v (%#x), two-pass %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

package codec

// frame.go is the byte layer of the v2 wire format. A blob is:
//
//	offset  size  field
//	0       1     magic 0xFD
//	1       1     version (2)
//	2       1     codec kind
//	3       1     quantization bits (0 unless kind == Quant)
//	4       4     tensor count, uint32 LE
//	8       8     reference checksum, uint64 LE (0 = absolute blob)
//
// followed by one frame per tensor:
//
//	offset  size  field
//	0       4     body length, uint32 LE (bytes after the name)
//	4       4     rows, uint32 LE
//	8       4     cols, uint32 LE
//	12      1     frame mode
//	13      1     name length
//	14      n     name bytes
//	14+n    …     body
//
// Frame modes: 0 raw float64 (absolute values — also the non-finite escape
// hatch inside delta blobs), 1 XOR delta, 2 float32 delta, 3 quantized
// delta, 4 top-k sparse delta. All integers are little-endian.
//
// The checksum is RefSum of the reference, a word-wide XXH64-based hash.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

const (
	blobMagic = 0xFD
	// blobVersion is the only version encoders write and decoders read.
	blobVersion    = 2
	blobHeaderLen  = 16
	frameHeaderLen = 14
)

// Frame modes.
const (
	modeRawF64 byte = 0
	modeXor    byte = 1
	modeF32    byte = 2
	modeQuant  byte = 3
	modeTopK   byte = 4
)

// blobRefSum is a blob's reference checksum, 0 for an absolute blob; blob
// holds at least the blob header.
func blobRefSum(blob []byte) uint64 { return binary.LittleEndian.Uint64(blob[8:]) }

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendRawF64Body writes absolute float64 values verbatim.
func appendRawF64Body(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = appendF64(dst, v)
	}
	return dst
}

func decodeRawF64Body(body []byte, out []float64) error {
	if len(body) != 8*len(out) {
		return fmt.Errorf("codec: raw body is %d bytes, want %d", len(body), 8*len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return nil
}

// appendXorBody writes the XOR of cur's and ref's IEEE-754 bit patterns with
// leading zero bytes suppressed: a nibble array holds each element's
// significant-byte count (low nibble = even index), then the significant
// bytes follow low-byte first. Identical elements cost half a byte; after a
// few rounds most weights agree in sign, exponent, and high mantissa bytes,
// so typical cost is 3-5 bytes per element instead of 8.
//
// dst grows once, by the nibble table plus 8 bytes per element. Each XOR
// word is stored whole and the write position advances by its significant
// bytes only, so the next word overwrites the zero high bytes of this one;
// each pair's nibble byte is stored whole too, so whatever the grown
// capacity held never reaches the body.
func appendXorBody(dst []byte, cur, ref []float64) []byte {
	n := len(cur)
	ref = ref[:n]
	nib := (n + 1) / 2
	start := len(dst)
	dst = slices.Grow(dst, nib+8*n)[:start+nib+8*n]
	nibs := dst[start : start+nib]
	pos := start + nib
	for i := 0; i < n; i += 2 {
		x := math.Float64bits(cur[i]) ^ math.Float64bits(ref[i])
		sig := xorSig(x)
		binary.LittleEndian.PutUint64(dst[pos:], x)
		pos += sig
		if i+1 < n {
			x = math.Float64bits(cur[i+1]) ^ math.Float64bits(ref[i+1])
			hi := xorSig(x)
			binary.LittleEndian.PutUint64(dst[pos:], x)
			pos += hi
			sig |= hi << 4
		}
		nibs[i>>1] = byte(sig)
	}
	return dst[:pos]
}

// xorSig is the count of x's significant bytes, 0..8.
func xorSig(x uint64) int { return (71 - bits.LeadingZeros64(x)) / 8 }

// xorMask keeps an element's significant bytes of a little-endian word. A
// well-formed nibble is 0..8; a crafted one of 9..15 consumes that many
// bytes and keeps the low 8, as the byte-at-a-time reading did.
var xorMask = [16]uint64{
	0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1,
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
}

// decodeXorBody inverts appendXorBody into out, two elements (one nibble
// byte) at a time. While 32 bytes remain, neither element of a pair (at most
// 15 bytes each) can run past the body, so each is a single 8-byte load
// masked to its significant bytes; the last elements are read byte by byte,
// each one's length checked first.
func decodeXorBody(body []byte, ref, out []float64) error {
	n := len(out)
	ref = ref[:n]
	nib := (n + 1) / 2
	if len(body) < nib {
		return fmt.Errorf("codec: xor body truncated: %d bytes, need %d-byte nibble table", len(body), nib)
	}
	pos, i := nib, 0
	for ; i+1 < n && pos+32 <= len(body); i += 2 {
		nb := body[i>>1]
		lo, hi := int(nb&0x0F), int(nb>>4)
		x0 := binary.LittleEndian.Uint64(body[pos:]) & xorMask[lo]
		x1 := binary.LittleEndian.Uint64(body[pos+lo:]) & xorMask[hi]
		pos += lo + hi
		out[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ x0)
		out[i+1] = math.Float64frombits(math.Float64bits(ref[i+1]) ^ x1)
	}
	for ; i < n; i++ {
		sig := int(body[i>>1]>>(4*(i&1))) & 0x0F
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

// appendF32Body writes the values of v downcast to float32 and leaves in v
// what the downcast dropped, v − float64(float32(v)), for error feedback. ok
// is false when some value overflows float32.
func appendF32Body(dst []byte, v []float64) ([]byte, bool) {
	start := len(dst)
	dst = slices.Grow(dst, 4*len(v))[:start+4*len(v)]
	ok := true
	for i, x := range v {
		f := float32(x)
		binary.LittleEndian.PutUint32(dst[start+4*i:], math.Float32bits(f))
		if math.IsInf(float64(f), 0) {
			ok = false
		}
		v[i] = x - float64(f)
	}
	return dst, ok
}

// decodeF32Body writes each body value plus ref's element into out. out may
// be ref.
func decodeF32Body(body []byte, ref, out []float64) error {
	if len(body) != 4*len(out) {
		return fmt.Errorf("codec: float32 body is %d bytes, want %d", len(body), 4*len(out))
	}
	ref = ref[:len(out)]
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))) + ref[i]
	}
	return nil
}

// appendQuantBody writes v under q-bit uniform quantization: a float64
// offset (lo) and step (scale) head the body, then one index per value —
// one byte at 8 bits, packed two-per-byte (low nibble first) at 4 bits.
// lo and hi are v's least and greatest elements (0 and 0 when v is empty).
// Quantization error per element is at most scale/2. v receives what the
// quantization dropped, v − (lo + scale·q), for error feedback, in the same
// pass. dst grows once and the index bytes are cleared first, so whatever
// its spare capacity held never reaches the body. ok is false when the
// scale or the greatest reconstruction, lo + scale·(2^q − 1), is not finite.
func appendQuantBody(dst []byte, v []float64, lo, hi float64, qbits int) ([]byte, bool) {
	levels := float64(uint64(1)<<qbits - 1)
	scale := (hi - lo) / levels
	if math.IsNaN(scale) || math.IsInf(scale, 0) || math.IsInf(lo+scale*levels, 0) {
		return dst, false
	}
	start := len(dst)
	size := quantBodyLen(len(v), qbits)
	dst = slices.Grow(dst, size)[:start+size]
	binary.LittleEndian.PutUint64(dst[start:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(dst[start+8:], math.Float64bits(scale))
	idx := dst[start+16:]
	clear(idx) // q4 ORs its nibbles in
	for i, x := range v {
		q := 0 // a zero scale means every value is lo
		if scale > 0 {
			// x ≥ lo, so only a rounding error past the top needs a clamp.
			q = int(min(math.Round((x-lo)/scale), levels))
		}
		if qbits == 8 {
			idx[i] = byte(q)
		} else {
			idx[i>>1] |= byte(q) << (4 * (i & 1))
		}
		v[i] = x - (lo + scale*float64(q))
	}
	return dst, true
}

func quantBodyLen(n, qbits int) int {
	if qbits == 8 {
		return 16 + n
	}
	return 16 + (n+1)/2
}

// decodeQuantBody writes each dequantised value plus ref's element into
// out. The value lo + scale·q is rounded before ref is added, as a separate
// decode and add would round it. out may be ref.
func decodeQuantBody(body []byte, qbits int, ref, out []float64) error {
	if len(body) != quantBodyLen(len(out), qbits) {
		return fmt.Errorf("codec: quant body is %d bytes, want %d", len(body), quantBodyLen(len(out), qbits))
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(body))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
	idx := body[16:]
	ref = ref[:len(out)]
	if qbits == 8 {
		idx = idx[:len(out)]
		for i := range out {
			out[i] = float64(lo+scale*float64(idx[i])) + ref[i]
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
		out[i] = float64(lo+scale*float64(b)) + ref[i]
	}
	return nil
}

// topKSelect returns the flat indices of the k entries of vals largest by
// magnitude, ascending. Ties break toward the lower index so the selection —
// and therefore the wire bytes — is deterministic.
func topKSelect(vals []float64, k int) []int {
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
	return idx
}

// appendTopKBody writes the k entries of v largest by magnitude as a sparse
// delta: an inner-mode byte (rawF64, f32, or quant), the kept-entry count,
// the ascending flat indices as uint32, and the kept values under the inner
// encoding. v receives the new error-feedback residual: each kept entry
// minus its reconstruction, each dropped entry whole. ok is false when the
// inner encoding's reconstruction is not finite.
func appendTopKBody(dst []byte, v []float64, k int, inner byte, qbits int) ([]byte, bool) {
	idx := topKSelect(v, k)
	dst = append(dst, inner)
	dst = appendU32(dst, uint32(k))
	kept := make([]float64, k)
	for i, flat := range idx {
		dst = appendU32(dst, uint32(flat))
		kept[i] = v[flat]
	}
	ok := true
	switch inner {
	case modeRawF64:
		dst = appendRawF64Body(dst, kept)
		clear(kept) // sent exactly: nothing carries over
	case modeF32:
		dst, ok = appendF32Body(dst, kept)
	case modeQuant:
		lo, hi := 0.0, 0.0
		if k > 0 {
			lo, hi = kept[0], kept[0]
			for _, x := range kept[1:] {
				lo, hi = widen(lo, hi, x)
			}
		}
		dst, ok = appendQuantBody(dst, kept, lo, hi, qbits)
	}
	for i, flat := range idx {
		v[flat] = kept[i]
	}
	return dst, ok
}

// decodeTopKBody writes ref plus the sparse delta into out: a dropped entry
// is 0 + ref, as a zeroed decode followed by a reference add leaves it (a −0
// reference reads +0), and a kept entry its inner-mode value plus ref.
func decodeTopKBody(body []byte, qbits int, ref, out []float64) error {
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
	// vals starts as the kept entries' reference values, and the inner
	// decode adds the delta to each in place.
	vals := make([]float64, k)
	for i := range vals {
		flat := int(binary.LittleEndian.Uint32(body[5+4*i:]))
		if flat >= len(out) {
			return fmt.Errorf("codec: top-k index %d out of range %d", flat, len(out))
		}
		vals[i] = ref[flat]
	}
	var err error
	switch inner {
	case modeRawF64:
		delta := make([]float64, k)
		if err = decodeRawF64Body(body[5+4*k:], delta); err == nil {
			for i, d := range delta {
				vals[i] = d + vals[i]
			}
		}
	case modeF32:
		err = decodeF32Body(body[5+4*k:], vals, vals)
	case modeQuant:
		err = decodeQuantBody(body[5+4*k:], qbits, vals, vals)
	default:
		err = fmt.Errorf("codec: unknown top-k inner mode %d", inner)
	}
	if err != nil {
		return err
	}
	ref = ref[:len(out)]
	for j, r := range ref {
		out[j] = 0 + r
	}
	for i, v := range vals {
		out[binary.LittleEndian.Uint32(body[5+4*i:])] = v
	}
	return nil
}

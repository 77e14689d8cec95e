package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// Encoder turns parameter sets into v2 blobs. It is stateful per sender:
// the lossy tiers keep one error-feedback residual per tensor, so each
// uplink (or downlink) direction of each connection needs its own Encoder.
// Not safe for concurrent use.
type Encoder struct {
	opts Options
	// residual holds, per tensor name, the error-feedback carry: the part
	// of previous deltas the lossy encoding dropped. The encoder compresses
	// v = delta + residual and stores back residual = v − decoded(v), so
	// quantization and sparsification error re-enters the next round
	// instead of being lost (memory-compensated compression).
	residual map[string][]float64

	// tracer/parent are the optional obs hooks (see SetTrace); nil when
	// tracing is off, which keeps EncodeParams span-free.
	tracer *obs.Tracer
	parent func() obs.SpanContext
}

// NewEncoder returns an Encoder for the given (validated) options.
func NewEncoder(opts Options) *Encoder {
	return &Encoder{opts: opts, residual: make(map[string][]float64)}
}

// Reset drops all error-feedback residuals (e.g. when the peer's reference
// state is lost and the next blob must be absolute). Safe on a nil receiver,
// so desync handlers can clear unconditionally before the codec layer is
// armed.
func (e *Encoder) Reset() {
	if e == nil {
		return
	}
	for k := range e.residual {
		delete(e.residual, k)
	}
}

// Ref is a reference parameter set together with its RefSum, taken once by
// NewRef. Holders keep the Ref rather than the bare set, so encoding or
// decoding any number of blobs against it hashes nothing; clearing the Ref
// (assigning Ref{}) clears the sum with the set. The set must not change
// while it is held as a reference. The zero Ref is "no reference": blobs
// encoded against it are absolute.
type Ref struct {
	params *nn.Params
	sum    uint64
}

// NewRef hashes p and returns it as a reference; a nil p gives the zero Ref.
func NewRef(p *nn.Params) Ref { return Ref{params: p, sum: RefSum(p)} }

// Params returns the reference set (nil for the zero Ref).
func (r Ref) Params() *nn.Params { return r.params }

// EncodeParams is EncodeRef against NewRef(ref): it hashes ref on every
// call. Callers that encode against one reference repeatedly keep a Ref.
func (e *Encoder) EncodeParams(dst []byte, p, ref *nn.Params) ([]byte, error) {
	return e.EncodeRef(dst, p, NewRef(ref))
}

// EncodeRef appends a v2 blob holding p, encoded against ref, to dst and
// returns the extended slice (pass nil to allocate fresh). The zero Ref — or
// a tensor missing from the reference — falls back to absolute raw-float64
// frames, so the first exchange of a connection needs no shared state.
// Tensors holding non-finite values are also sent absolute: quantizing a
// NaN would poison the scale and the residual, and the server's non-finite
// screen needs to see the genuine values to attribute the failure. So is a
// tensor whose compensated delta or its lossy reconstruction overflows.
func (e *Encoder) EncodeRef(dst []byte, p *nn.Params, ref Ref) ([]byte, error) {
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("codec: encode of nil params")
	}
	if e.tracer != nil {
		sp := obs.NewSpans(nil, e.tracer).Start(e.traceParent(), obs.SpanEncode)
		sp.SetAttr(obs.AttrTier, e.opts.Kind.String())
		base := len(dst)
		defer func() {
			sp.SetAttr(obs.AttrBytesEnc, len(dst)-base)
			sp.SetAttr(obs.AttrTensors, p.Len())
			sp.End()
		}()
	}
	dst = append(dst, blobMagic, blobVersion, byte(e.opts.Kind), byte(e.opts.Bits))
	dst = appendU32(dst, uint32(p.Len()))
	dst = appendU64(dst, ref.sum)
	names := p.Names()
	for i := 0; i < p.Len(); i++ {
		name := names[i]
		if len(name) > 255 {
			return nil, fmt.Errorf("codec: tensor name %q exceeds 255 bytes", name)
		}
		cur := p.At(i)
		var refT *mat.Dense
		if ref.params != nil {
			refT = ref.params.Get(name)
			if refT != nil && (refT.Rows() != cur.Rows() || refT.Cols() != cur.Cols()) {
				return nil, fmt.Errorf("codec: tensor %q is %dx%d but reference is %dx%d",
					name, cur.Rows(), cur.Cols(), refT.Rows(), refT.Cols())
			}
		}
		var err error
		dst, err = e.encodeTensor(dst, name, cur, refT)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// encodeTensor appends one frame. The frame header's body length is
// back-patched after the body is written.
func (e *Encoder) encodeTensor(dst []byte, name string, cur, ref *mat.Dense) ([]byte, error) {
	hdr := len(dst)
	dst = appendU32(dst, 0) // body length, patched below
	dst = appendU32(dst, uint32(cur.Rows()))
	dst = appendU32(dst, uint32(cur.Cols()))
	dst = append(dst, 0, byte(len(name))) // mode patched below
	dst = append(dst, name...)
	bodyStart := len(dst)

	data := cur.Data()
	mode, ok := modeRawF64, false
	switch {
	case ref == nil:
	case e.opts.Kind == Delta && e.opts.TopK == 0:
		if finite(data) {
			mode, ok = modeXor, true
			dst = appendXorBody(dst, data, ref.Data())
		}
	default:
		// A non-finite value in data makes its compensated delta
		// non-finite, so encodeLossy refuses it without a pass of its own.
		dst, mode, ok = e.encodeLossy(dst, name, data, ref.Data())
	}
	if !ok {
		// Absolute frame, over whatever a failed lossy encode wrote; a
		// stale residual for this tensor no longer matches any reference
		// state, so drop it.
		delete(e.residual, name)
		mode = modeRawF64
		dst = appendRawF64Body(dst[:bodyStart], data)
	}
	dst[hdr+12] = mode
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(dst)-bodyStart))
	return dst, nil
}

// encodeLossy handles the float32/quant/top-k tiers. It builds the
// compensated delta v = (cur − ref) + residual in the residual slice itself,
// encodes v, and leaves the new residual v − decoded(v) in its place. ok is
// false when v or its reconstruction is not finite (a delta that overflows
// the tier): the caller then sends the tensor absolute and drops the
// residual, which would otherwise carry the overflow into every later round.
func (e *Encoder) encodeLossy(dst []byte, name string, cur, ref []float64) ([]byte, byte, bool) {
	n := len(cur)
	r, hasResidual := e.residual[name]
	if !hasResidual || len(r) != n {
		r, hasResidual = make([]float64, n), false
		e.residual[name] = r
	}
	lo, hi, ok := compensate(r, cur, ref, hasResidual)
	if !ok {
		return dst, 0, false
	}
	switch {
	case e.opts.TopK > 0:
		k := min(int(math.Ceil(e.opts.TopK*float64(n))), n)
		inner := modeRawF64
		switch e.opts.Kind {
		case Float32:
			inner = modeF32
		case Quant:
			inner = modeQuant
		}
		dst, ok = appendTopKBody(dst, r, k, inner, e.opts.Bits)
		return dst, modeTopK, ok
	case e.opts.Kind == Float32:
		dst, ok = appendF32Body(dst, r)
		return dst, modeF32, ok
	default:
		dst, ok = appendQuantBody(dst, r, lo, hi, e.opts.Bits)
		return dst, modeQuant, ok
	}
}

// compensate writes v = (cur − ref) + r into r, or v = cur − ref when
// withResidual is false (adding a zero residual would turn −0 into +0), and
// returns v's least and greatest elements, 0 and 0 when it is empty. ok is
// false when some v is not finite; the range is what tells an infinity, so
// the float32 and top-k tiers take it too.
func compensate(r, cur, ref []float64, withResidual bool) (lo, hi float64, ok bool) {
	if len(cur) == 0 {
		return 0, 0, true
	}
	ref, r = ref[:len(cur)], r[:len(cur)]
	lo, hi = math.Inf(1), math.Inf(-1)
	nan := false
	for i, c := range cur {
		v := c - ref[i]
		if withResidual {
			v += r[i]
		}
		r[i] = v
		lo, hi = widen(lo, hi, v)
		if math.IsNaN(v) {
			nan = true
		}
	}
	return lo, hi, !nan && !math.IsInf(lo, 0) && !math.IsInf(hi, 0)
}

// widen extends the range [lo, hi] to take in x. Of equal extremes the first
// wins (a leading +0 stays against a later −0, where the min builtin would
// take −0); lo goes on the wire, so the rule fixes the blob's bytes.
func widen(lo, hi, x float64) (float64, float64) {
	if x < lo {
		lo = x
	}
	if x > hi {
		hi = x
	}
	return lo, hi
}

// DecodeParams is decodeRef against NewRef(ref): it hashes ref on every
// call. The transport, which decodes against one reference repeatedly, keeps
// a Ref and calls DecodeParamsTraced.
func DecodeParams(blob []byte, ref *nn.Params) (*nn.Params, error) {
	return decodeRef(blob, NewRef(ref))
}

// decodeRef reconstructs a parameter set from a v2 blob. A blob with a
// nonzero reference checksum requires ref's sum to be exactly that value;
// an absolute blob (checksum 0) ignores ref. The lossy modes add the
// reference as they write each element. Output matrices are drawn from the
// mat buffer pool without zeroing (every mode writes every element) —
// ownership transfers to the caller, who may PutDense them once the values
// have been consumed (or let the GC take them).
func decodeRef(blob []byte, r Ref) (*nn.Params, error) {
	if len(blob) < blobHeaderLen {
		return nil, fmt.Errorf("codec: blob is %d bytes, want at least %d", len(blob), blobHeaderLen)
	}
	if blob[0] != blobMagic {
		return nil, fmt.Errorf("codec: bad magic 0x%02X", blob[0])
	}
	if blob[1] != blobVersion {
		return nil, fmt.Errorf("codec: unsupported wire version %d", blob[1])
	}
	qbits := int(blob[3])
	count := int(binary.LittleEndian.Uint32(blob[4:]))
	refsum := blobRefSum(blob)
	ref := r.params
	if refsum != 0 {
		if ref == nil {
			return nil, fmt.Errorf("codec: blob needs a reference but decoder has none")
		}
		if r.sum != refsum {
			return nil, fmt.Errorf("codec: reference checksum mismatch: blob %016x, local %016x", refsum, r.sum)
		}
	}
	out := nn.NewParams()
	pos := blobHeaderLen
	for t := 0; t < count; t++ {
		if len(blob)-pos < frameHeaderLen {
			return nil, fmt.Errorf("codec: frame %d header truncated", t)
		}
		bodyLen := int(binary.LittleEndian.Uint32(blob[pos:]))
		rows := int(binary.LittleEndian.Uint32(blob[pos+4:]))
		cols := int(binary.LittleEndian.Uint32(blob[pos+8:]))
		mode := blob[pos+12]
		nameLen := int(blob[pos+13])
		pos += frameHeaderLen
		if len(blob)-pos < nameLen+bodyLen {
			return nil, fmt.Errorf("codec: frame %d truncated", t)
		}
		name := string(blob[pos : pos+nameLen])
		body := blob[pos+nameLen : pos+nameLen+bodyLen]
		pos += nameLen + bodyLen

		var refData []float64
		if mode == modeRawF64 {
			// The only mode not bounded by a reference tensor's shape: check
			// the claimed shape against the body before allocating for it.
			if n := uint64(rows) * uint64(cols); n != uint64(bodyLen)/8 || bodyLen%8 != 0 {
				return nil, fmt.Errorf("codec: frame %q: codec: raw body is %d bytes, want %d", name, bodyLen, 8*n)
			}
		} else {
			if ref == nil {
				return nil, fmt.Errorf("codec: delta frame %q in a blob without a reference", name)
			}
			refT := ref.Get(name)
			if refT == nil {
				return nil, fmt.Errorf("codec: delta frame %q has no reference tensor", name)
			}
			if refT.Rows() != rows || refT.Cols() != cols {
				return nil, fmt.Errorf("codec: frame %q is %dx%d but reference is %dx%d",
					name, rows, cols, refT.Rows(), refT.Cols())
			}
			refData = refT.Data()
		}
		d := mat.GetDenseUnzeroed(rows, cols)
		out.Add(name, d) // transfer pool ownership to the result immediately
		data := d.Data()
		var err error
		switch mode {
		case modeRawF64:
			err = decodeRawF64Body(body, data)
		case modeXor:
			err = decodeXorBody(body, refData, data)
		case modeF32:
			err = decodeF32Body(body, refData, data)
		case modeQuant:
			err = decodeQuantBody(body, qbits, refData, data)
		case modeTopK:
			err = decodeTopKBody(body, qbits, refData, data)
		default:
			err = fmt.Errorf("codec: unknown frame mode %d", mode)
		}
		if err != nil {
			return nil, fmt.Errorf("codec: frame %q: %w", name, err)
		}
	}
	if pos != len(blob) {
		return nil, fmt.Errorf("codec: %d trailing bytes after last frame", len(blob)-pos)
	}
	return out, nil
}

// PutParams releases a DecodeParams result's pooled matrices. The set must
// not be used afterwards.
func PutParams(p *nn.Params) {
	if p == nil {
		return
	}
	for i := 0; i < p.Len(); i++ {
		mat.PutDense(p.At(i))
	}
}

func finite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

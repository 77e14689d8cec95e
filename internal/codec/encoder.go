package codec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// Encoder turns parameter sets into v1 blobs. It is stateful per sender:
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
	delta    []float64 // scratch, reused across tensors and calls
	recon    []float64 // scratch for the decoder-side reconstruction

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

// RefSum fingerprints a reference parameter set: FNV-1a over each tensor's
// name and float64 bit patterns, forced nonzero (zero means "no reference"
// on the wire). Encoder and decoder both hash their copy of the reference so
// a blob can never silently be applied against the wrong base.
func RefSum(ref *nn.Params) uint64 {
	if ref == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	names := ref.Names()
	for i := 0; i < ref.Len(); i++ {
		h.Write([]byte(names[i]))
		for _, v := range ref.At(i).Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// EncodeParams appends a v1 blob holding p, encoded against ref, to dst and
// returns the extended slice (pass nil to allocate fresh). A nil ref — or a
// tensor missing from ref — falls back to absolute raw-float64 frames, so
// the first exchange of a connection needs no shared state. Tensors holding
// non-finite values are also sent absolute: quantizing a NaN would poison
// the scale and the residual, and the server's non-finite screen needs to
// see the genuine values to attribute the failure.
func (e *Encoder) EncodeParams(dst []byte, p, ref *nn.Params) ([]byte, error) {
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("codec: encode of nil params")
	}
	if e.tracer != nil {
		sp := e.tracer.Start(e.traceParent(), obs.SpanEncode)
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
	dst = appendU64(dst, RefSum(ref))
	names := p.Names()
	for i := 0; i < p.Len(); i++ {
		name := names[i]
		if len(name) > 255 {
			return nil, fmt.Errorf("codec: tensor name %q exceeds 255 bytes", name)
		}
		cur := p.At(i)
		var refT *mat.Dense
		if ref != nil {
			refT = ref.Get(name)
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
	mode := modeRawF64
	switch {
	case ref == nil || !finite(data):
		// Absolute frame; a stale residual for this tensor no longer
		// matches any reference state, so drop it.
		delete(e.residual, name)
		dst = appendRawF64Body(dst, data)
	case e.opts.Kind == Delta && e.opts.TopK == 0:
		mode = modeXor
		dst = appendXorBody(dst, data, ref.Data())
	default:
		dst, mode = e.encodeLossy(dst, name, data, ref.Data(), cur.Cols())
	}
	dst[hdr+12] = mode
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(dst)-bodyStart))
	return dst, nil
}

// encodeLossy handles the float32/quant/top-k tiers: build the compensated
// delta v = (cur − ref) + residual, encode it, and store the new residual
// v − decoded(v).
func (e *Encoder) encodeLossy(dst []byte, name string, cur, ref []float64, cols int) ([]byte, byte) {
	n := len(cur)
	e.delta = resize(e.delta, n)
	e.recon = resize(e.recon, n)
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
		dst = appendTopKBody(dst, topKSelect(v, cols, k), cols, inner, e.opts.Bits, e.recon)
	} else if e.opts.Kind == Float32 {
		mode = modeF32
		dst = appendF32Body(dst, v, e.recon)
	} else {
		mode = modeQuant
		dst = appendQuantBody(dst, v, e.opts.Bits, e.recon)
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

// DecodeParams reconstructs a parameter set from a v1 blob. A blob with a
// nonzero reference checksum requires ref to hash to exactly that value;
// an absolute blob (checksum 0) ignores ref. Output matrices are drawn from
// the mat buffer pool — ownership transfers to the caller, who may PutDense
// them once the values have been consumed (or let the GC take them).
func DecodeParams(blob []byte, ref *nn.Params) (*nn.Params, error) {
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
	refsum := binary.LittleEndian.Uint64(blob[8:])
	if refsum != 0 {
		if ref == nil {
			return nil, fmt.Errorf("codec: blob needs a reference but decoder has none")
		}
		if got := RefSum(ref); got != refsum {
			return nil, fmt.Errorf("codec: reference checksum mismatch: blob %016x, local %016x", refsum, got)
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
		if mode != modeRawF64 {
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
		d := mat.GetDense(rows, cols)
		out.Add(name, d) // transfer pool ownership to the result immediately
		data := d.Data()
		var err error
		switch mode {
		case modeRawF64:
			err = decodeRawF64Body(body, data)
		case modeXor:
			err = decodeXorBody(body, refData, data)
		case modeF32:
			err = decodeF32Body(body, data)
			addRef(data, refData)
		case modeQuant:
			err = decodeQuantBody(body, qbits, data)
			addRef(data, refData)
		case modeTopK:
			err = decodeTopKBody(body, qbits, data) // data starts zeroed
			addRef(data, refData)
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

func addRef(data, ref []float64) {
	for i := range data {
		data[i] += ref[i]
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

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

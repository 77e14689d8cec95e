// Package codec implements the communication codecs the federated runtime
// uses to shrink parameter payloads: lossless XOR-delta encoding against the
// last broadcast global, float32 downcast, q-bit uniform quantization with
// per-tensor scale/offset, and optional top-k sparsification of deltas —
// the lossy tiers carrying per-client error-feedback residuals so dropped
// information re-enters the next round instead of being lost.
//
// The wire artefact is a self-describing v2 blob: a fixed header (magic,
// version, codec kind, quantization bits, tensor count, reference checksum)
// followed by one length-delimited frame per tensor. A blob whose reference
// checksum is zero is absolute and decodes without any shared state; a
// nonzero checksum names the exact reference parameter set the decoder must
// hold, by RefSum: a word-wide XXH64-based hash over names, lengths and
// float bit patterns. v2 is the only version encoders write and the
// decoder reads.
package codec

import (
	"fmt"
	"strings"
)

// Kind selects the value encoding applied to parameter deltas.
type Kind uint8

const (
	// Raw disables the codec: parameters travel as raw float64 (the
	// historical wire format). The zero value, so existing configs are
	// unchanged.
	Raw Kind = iota
	// Delta sends the XOR of the IEEE-754 bit patterns of the parameters
	// against the reference, with leading zero bytes suppressed. Lossless:
	// decode is bit-identical to the input, unlike an arithmetic delta
	// (g + (p−g) need not round-trip in float64).
	Delta
	// Float32 sends arithmetic deltas downcast to float32.
	Float32
	// Quant sends arithmetic deltas under q-bit uniform quantization with a
	// per-tensor offset/scale (q ∈ {8, 4}), plus error feedback.
	Quant
)

// String returns the flag spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Delta:
		return "delta"
	case Float32:
		return "float32"
	case Quant:
		return "quant"
	}
	return fmt.Sprintf("codec.Kind(%d)", uint8(k))
}

// Options selects a codec stack. The zero value means "codec off".
type Options struct {
	// Kind is the value encoding (see the Kind constants).
	Kind Kind
	// Bits is the quantization width for Kind == Quant; 8 or 4.
	Bits int
	// TopK, when in (0, 1), keeps only that fraction of each tensor's
	// delta entries (the largest by magnitude, COO-encoded); the rest are
	// carried in the error-feedback residual. 0 disables sparsification.
	TopK float64
}

// Parse maps the CLI surface (-codec, -quant-bits, -topk) to Options.
// Recognised names: "", "raw", "delta", "float32"/"f32", "quant", and the
// shorthands "q8"/"q4" which force the bit width.
func Parse(name string, quantBits int, topK float64) (Options, error) {
	// Bits is carried through for every kind so Validate can reject a stray
	// -quant-bits on a codec that ignores it, instead of dropping it quietly.
	o := Options{Bits: quantBits, TopK: topK}
	name = strings.ToLower(strings.TrimSpace(name))
	switch name {
	case "", "raw":
		o.Kind = Raw
	case "delta":
		o.Kind = Delta
	case "float32", "f32":
		o.Kind = Float32
	case "quant":
		o.Kind = Quant
		if o.Bits == 0 {
			o.Bits = 8
		}
	case "q8", "q4":
		o.Kind = Quant
		forced := 8
		if name == "q4" {
			forced = 4
		}
		if quantBits != 0 && quantBits != forced {
			return Options{}, fmt.Errorf("codec: -quant-bits %d conflicts with -codec %s", quantBits, name)
		}
		o.Bits = forced
	default:
		return Options{}, fmt.Errorf("codec: unknown codec %q (want raw, delta, float32, quant, q8, or q4)", name)
	}
	return o, o.Validate()
}

// Validate checks the option combination is one the wire format can express.
func (o Options) Validate() error {
	switch o.Kind {
	case Raw:
		if o.TopK != 0 {
			return fmt.Errorf("codec: -topk needs a delta codec (delta, float32, or quant), not raw")
		}
		if o.Bits != 0 {
			return fmt.Errorf("codec: -quant-bits needs -codec quant, not raw")
		}
		return nil
	case Delta, Float32:
		if o.Bits != 0 {
			return fmt.Errorf("codec: -quant-bits needs -codec quant, not %s", o.Kind)
		}
	case Quant:
		if o.Bits != 8 && o.Bits != 4 {
			return fmt.Errorf("codec: quantization width must be 8 or 4 bits, got %d", o.Bits)
		}
	default:
		return fmt.Errorf("codec: unknown kind %d", uint8(o.Kind))
	}
	if o.TopK < 0 || o.TopK >= 1 {
		return fmt.Errorf("codec: -topk must lie in [0, 1), got %v", o.TopK)
	}
	return nil
}

// Enabled reports whether the options select any codec at all.
func (o Options) Enabled() bool { return o.Kind != Raw }

// Name returns the tier name used in reports and metric keys: raw, delta,
// float32, q8, q4, with a "_top<percent>" suffix when sparsifying.
func (o Options) Name() string {
	n := o.Kind.String()
	if o.Kind == Quant {
		n = fmt.Sprintf("q%d", o.Bits)
	}
	if o.TopK > 0 {
		n = fmt.Sprintf("%s_top%g", n, o.TopK*100)
	}
	return n
}

// Telemetry keys. Byte counters compare the raw float64 payload size against
// what actually went on the wire; the ns counters price the codec work.
// MetricBytesRaw/MetricBytesEncoded cover uploads (client → server, the
// direction the configured tier compresses); the _down pair covers the
// always-lossless delta broadcasts. MetricRatioPrefix heads the per-tier
// upload compression gauge ("codec/ratio/q8").
const (
	MetricBytesRaw         = "codec/bytes_raw"
	MetricBytesEncoded     = "codec/bytes_encoded"
	MetricBytesRawDown     = "codec/bytes_raw_down"
	MetricBytesEncodedDown = "codec/bytes_encoded_down"
	MetricEncodeNs         = "codec/encode_ns"
	MetricDecodeNs         = "codec/decode_ns"
	MetricRatioPrefix      = "codec/ratio"
)

// WireV2 is the framed-blob protocol version parties advertise in the
// transport hello handshake. A peer that advertises nothing, or only v1
// (whose blobs carry the old checksum, which this build neither writes nor
// reads), falls back to the v0 raw-gob format.
const WireV2 uint8 = blobVersion

// WireVersions lists the protocol versions this build speaks, newest last.
func WireVersions() []uint8 { return []uint8{WireV2} }

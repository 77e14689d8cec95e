// Package residualstate exercises the residualstate analyzer: codec
// reference resets that leave stale error-feedback residuals behind, against
// the clear-before/clear-after patterns DESIGN §10 allows.
package residualstate

import (
	"fedomd/internal/codec"
	"fedomd/internal/nn"
)

// conn pairs a reference state with the encoder that deltas against it, the
// way transport connections do.
type conn struct {
	enc *codec.Encoder
	ref *nn.Params
}

func fieldResetLeaksResidual(c *conn, bad bool) error {
	if bad {
		c.ref = nil // want `c.ref is nilled for an absolute re-sync but c.enc keeps its error-feedback residual`
		return nil
	}
	return nil
}

func localResetThenEncode(p *nn.Params, blob []byte) []byte {
	enc := codec.NewEncoder(codec.Options{Kind: codec.Quant, Bits: 8})
	ref := p
	out, _ := enc.EncodeParams(nil, p, ref)
	ref = nil // want `ref is nilled for an absolute re-sync but enc keeps its error-feedback residual`
	out2, _ := enc.EncodeParams(out, p, ref)
	return out2
}

func loopResetNeverCleared(c *conn, ps []*nn.Params) {
	for _, p := range ps {
		blob, err := c.enc.EncodeParams(nil, p, c.ref)
		if err != nil {
			c.ref = nil // want `c.ref is nilled for an absolute re-sync but c.enc keeps its error-feedback residual`
			continue
		}
		_ = blob
		c.ref = p
	}
}

// --- allowed patterns ---

func resetThenClear(c *conn) {
	c.ref = nil
	c.enc.Reset()
}

func clearThenReset(c *conn) {
	c.enc.Reset()
	c.ref = nil // residual already dropped just above
}

func freshEncoderThenReset(c *conn, opts codec.Options) {
	c.enc = codec.NewEncoder(opts)
	c.ref = nil // a fresh encoder has no residual
}

func localFreshPair(p *nn.Params) {
	enc := codec.NewEncoder(codec.Options{Kind: codec.Delta})
	var ref *nn.Params
	ref = nil // encoder was never armed with a residual
	blob, _ := enc.EncodeParams(nil, p, ref)
	_ = blob
}

func nonNilOverwrite(c *conn, p *nn.Params) {
	c.ref = p // advancing the reference chain is not a reset
}

func noPairedEncoder(ref *nn.Params) {
	ref = nil // nothing deltas against this reference here
	_ = ref
}

// --- codec.Ref references and the EncodeRef entry point ---

// refConn holds its reference as a codec.Ref (set plus checksum), the way
// the party side of the transport does.
type refConn struct {
	enc *codec.Encoder
	ref codec.Ref
}

func refFieldResetThenEncode(c *refConn, p *nn.Params) []byte {
	c.ref = codec.Ref{} // want `c.ref is nilled for an absolute re-sync but c.enc keeps its error-feedback residual`
	blob, _ := c.enc.EncodeRef(nil, p, c.ref)
	return blob
}

func localRefResetThenEncode(p *nn.Params) []byte {
	enc := codec.NewEncoder(codec.Options{Kind: codec.Quant, Bits: 8})
	ref := codec.NewRef(p)
	out, _ := enc.EncodeRef(nil, p, ref)
	ref = codec.Ref{} // want `ref is nilled for an absolute re-sync but enc keeps its error-feedback residual`
	out2, _ := enc.EncodeRef(out, p, ref)
	return out2
}

func encodeRefRepopulates(c *conn, p *nn.Params) []byte {
	c.enc.Reset()
	blob, _ := c.enc.EncodeRef(nil, p, codec.Ref{}) // refills the residual Reset emptied
	c.ref = nil                                     // want `c.ref is nilled for an absolute re-sync but c.enc keeps its error-feedback residual`
	return blob
}

func refResetThenClear(c *refConn) {
	c.ref = codec.Ref{}
	c.enc.Reset()
}

func refAdvance(c *refConn, p *nn.Params) {
	c.ref = codec.NewRef(p) // advancing the reference chain is not a reset
}

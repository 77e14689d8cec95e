package fed

// codec.go wires the internal/codec compression tiers into Run's in-process
// round loop. The simulation has no sockets, so the codec runs "in effigy":
// every upload is really encoded against the reference the client last
// received, byte-counted, and decoded server-side before aggregation — the
// accuracy effects of lossy tiers (and the byte accounting of all tiers)
// are exactly those of a wire deployment. Downlink broadcasts are encoded
// once per distinct reference state (broadcastMemo, which the transport
// shares) and charged per client.
//
// Distributed runs negotiate the same codec inside the transport instead
// (see transport.go); Run detects those proxies via wireCodecClient and
// leaves them alone so payloads are never encoded twice.

import (
	"fmt"
	"sync"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// wireCodecClient is implemented by transport proxies that already applied a
// negotiated wire codec; Run's in-process codec layer skips them so payloads
// are not encoded twice.
type wireCodecClient interface{ wireCodecNegotiated() bool }

func transportCoded(c Client) bool {
	w, ok := c.(wireCodecClient)
	return ok && w.wireCodecNegotiated()
}

// broadcastMemo encodes each broadcast once per distinct (global, reference)
// pair and hands the same blob to every party holding that reference: the
// in-process codec layer and every transport proxy of a run share one. The
// downlink is always the lossless Delta tier, which keeps no error-feedback
// residual, so one encoder serves every party and a shared blob is exactly
// what a per-party encode would have produced. It also turns each global
// into a codec.Ref once, so a global's checksum is taken once however many
// parties come to hold it.
//
// The memo holds one global at a time: a broadcast of a different global
// drops the cached blobs (the sync engine moves to the next global once per
// round; async workers that interleave two globals only re-encode). Globals
// are immutable once aggregated, so pointer identity is a sound key, and
// cached blobs are never written after they are made, so callers may read
// them concurrently.
type broadcastMemo struct {
	mu     sync.Mutex
	enc    *codec.Encoder
	global *nn.Params
	gref   codec.Ref
	// blobs maps a holder's reference set (nil for an absolute blob) to the
	// encoding of global against it.
	blobs map[*nn.Params][]byte
}

func newBroadcastMemo() *broadcastMemo {
	return &broadcastMemo{
		enc:   codec.NewEncoder(codec.Options{Kind: codec.Delta}),
		blobs: make(map[*nn.Params][]byte),
	}
}

// encode returns the blob that carries global to a party holding ref, and
// global as the Ref the party holds once delivery succeeds. encodeNs is the
// time spent encoding, 0 when the blob came from the memo.
func (m *broadcastMemo) encode(global *nn.Params, ref codec.Ref) (blob []byte, next codec.Ref, encodeNs int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if global != m.global {
		m.global, m.gref = global, codec.NewRef(global)
		clear(m.blobs)
	}
	if blob, ok := m.blobs[ref.Params()]; ok {
		return blob, m.gref, 0, nil
	}
	t0 := time.Now()
	blob, err = m.enc.EncodeRef(nil, global, ref)
	if err != nil {
		return nil, codec.Ref{}, 0, err
	}
	m.blobs[ref.Params()] = blob
	return blob, m.gref, time.Since(t0).Nanoseconds(), nil
}

// codecState carries the per-run codec machinery: one uplink Encoder per
// client (each owns its error-feedback residuals), the per-client downlink
// reference (the global each client last successfully received, with its
// checksum), and the broadcast memo.
type codecState struct {
	opts codec.Options
	rec  telemetry.Recorder
	// mu guards the run-wide accounting totals. The async engine drives
	// broadcast and upload from per-party worker goroutines; the per-party
	// uplink encoders up[i] and references downRef[i] need no lock because a
	// party never has two jobs in flight.
	mu sync.Mutex
	// ratioKey is the per-tier gauge name ("codec/ratio/<tier>").
	ratioKey string
	up       []*codec.Encoder
	// memo encodes broadcasts. Downlink is always the lossless Delta tier
	// regardless of the uplink codec — the global must arrive exactly or
	// every client's reference (and the delta parity guarantee) drifts.
	memo    *broadcastMemo
	downRef []codec.Ref
	// rawTotal and encTotal accumulate uplink traffic over the run for the
	// per-tier gauge.
	rawTotal, encTotal int64
}

func newCodecState(opts codec.Options, n int, rec telemetry.Recorder) *codecState {
	cs := &codecState{
		opts:     opts,
		rec:      rec,
		ratioKey: codec.MetricRatioPrefix + "/" + opts.Name(),
		up:       make([]*codec.Encoder, n),
		memo:     newBroadcastMemo(),
		downRef:  make([]codec.Ref, n),
	}
	for i := range cs.up {
		cs.up[i] = codec.NewEncoder(opts)
	}
	return cs
}

// setTrace arms every per-client encoder (and the broadcast encoder) with
// the run's tracer; encode spans then parent under the tracer's active round
// context. A nil tracer leaves tracing off.
func (cs *codecState) setTrace(tr *obs.Tracer) {
	for _, e := range cs.up {
		e.SetTrace(tr, tr.Active)
	}
	cs.memo.enc.SetTrace(tr, tr.Active)
}

// accountUp records one upload's raw and encoded sizes — the direction the
// configured tier compresses, and the pair the ≥4× acceptance gate reads.
func (cs *codecState) accountUp(raw, enc int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.rawTotal += raw
	cs.encTotal += enc
	if cs.rec.Enabled() {
		cs.rec.Count(codec.MetricBytesRaw, raw)
		cs.rec.Count(codec.MetricBytesEncoded, enc)
		if cs.encTotal > 0 {
			cs.rec.Gauge(cs.ratioKey, float64(cs.rawTotal)/float64(cs.encTotal)) //fedomdvet:ignore per-tier gauge; base key is the MetricRatioPrefix constant, suffix is the closed codec.Options.Name set
		}
	}
}

// broadcast returns the downlink bytes for delivering global to client i and
// advances the client's reference. Call it only after SetParams succeeded:
// a client that missed the broadcast keeps its old reference, and its next
// exchange is encoded against that (or absolutely, when it never had one).
func (cs *codecState) broadcast(i int, global *nn.Params) (int64, error) {
	blob, next, encodeNs, err := cs.memo.encode(global, cs.downRef[i])
	if err != nil {
		return 0, fmt.Errorf("fed: codec broadcast encode: %w", err)
	}
	cs.downRef[i] = next
	size := int64(len(blob))
	if cs.rec.Enabled() {
		if encodeNs > 0 {
			cs.rec.Count(codec.MetricEncodeNs, encodeNs)
		}
		cs.rec.Count(codec.MetricBytesRawDown, int64(global.Bytes()))
		cs.rec.Count(codec.MetricBytesEncodedDown, size)
	}
	return size, nil
}

// upload encodes client i's parameters against its downlink reference,
// decodes them as the server would, and returns the decoded set (drawn from
// the mat buffer pool — release with putUpload after aggregation) plus the
// encoded byte count. Lossy tiers return values that differ from p exactly
// as they would over a real wire.
func (cs *codecState) upload(i int, p *nn.Params) (*nn.Params, int64, error) {
	ref := cs.downRef[i]
	t0 := time.Now()
	blob, err := cs.up[i].EncodeRef(nil, p, ref)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	dec, err := codec.DecodeParamsTraced(blob, ref, nil, obs.SpanContext{})
	if err != nil {
		return nil, 0, err
	}
	if cs.rec.Enabled() {
		cs.rec.Count(codec.MetricEncodeNs, t1.Sub(t0).Nanoseconds())
		cs.rec.Count(codec.MetricDecodeNs, time.Since(t1).Nanoseconds())
	}
	cs.accountUp(int64(p.Bytes()), int64(len(blob)))
	return dec, int64(len(blob)), nil
}

package fed

// codec.go wires the internal/codec compression tiers into Run's in-process
// round loop. The simulation has no sockets, so the codec runs "in effigy":
// every upload is really encoded against the reference the client last
// received, byte-counted, and decoded server-side before aggregation — the
// accuracy effects of lossy tiers (and the byte accounting of all tiers)
// are exactly those of a wire deployment. Downlink broadcasts are encoded
// once per distinct reference state and charged per client.
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

// codecState carries the per-run codec machinery: one uplink Encoder per
// client (each owns its error-feedback residuals), the per-client downlink
// reference (the global each client last successfully received), and a
// per-round memo so a broadcast of the same global against the same
// reference is encoded once, not once per client.
type codecState struct {
	opts codec.Options
	rec  telemetry.Recorder
	// mu guards the shared broadcast machinery (down encoder, memo, downRef
	// pointers read as memo keys) and the run-wide accounting totals. The
	// async engine drives broadcast and upload from per-party worker
	// goroutines; the per-party uplink encoders up[i] need no lock because a
	// party never has two jobs in flight.
	mu sync.Mutex
	// ratioKey is the per-tier gauge name ("codec/ratio/<tier>").
	ratioKey string
	up       []*codec.Encoder
	// down is the broadcast encoder. Downlink is always the lossless Delta
	// tier regardless of the uplink codec — the global must arrive exactly
	// or every client's reference (and the delta parity guarantee) drifts.
	down    *codec.Encoder
	downRef []*nn.Params
	// memo caches this round's encoded broadcast size per reference
	// parameter set (globals are immutable once aggregated, so pointer
	// identity is a sound key).
	memo map[*nn.Params]int64
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
		down:     codec.NewEncoder(codec.Options{Kind: codec.Delta}),
		downRef:  make([]*nn.Params, n),
		memo:     make(map[*nn.Params]int64),
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
	cs.down.SetTrace(tr, tr.Active)
}

func (cs *codecState) beginRound() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for k := range cs.memo {
		delete(cs.memo, k)
	}
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

// accountDown records one broadcast's raw and encoded sizes (always the
// lossless Delta tier).
func (cs *codecState) accountDown(raw, enc int64) {
	if cs.rec.Enabled() {
		cs.rec.Count(codec.MetricBytesRawDown, raw)
		cs.rec.Count(codec.MetricBytesEncodedDown, enc)
	}
}

// broadcast returns the downlink bytes for delivering global to client i and
// advances the client's reference. Call it only after SetParams succeeded:
// a client that missed the broadcast keeps its old reference, and its next
// exchange is encoded against that (or absolutely, when it never had one).
func (cs *codecState) broadcast(i int, global *nn.Params) (int64, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ref := cs.downRef[i]
	size, ok := cs.memo[ref]
	if !ok {
		t0 := time.Now()
		blob, err := cs.down.EncodeParams(nil, global, ref)
		if err != nil {
			return 0, fmt.Errorf("fed: codec broadcast encode: %w", err)
		}
		size = int64(len(blob))
		cs.memo[ref] = size
		if cs.rec.Enabled() {
			cs.rec.Count(codec.MetricEncodeNs, time.Since(t0).Nanoseconds())
		}
	}
	cs.downRef[i] = global
	cs.accountDown(int64(global.Bytes()), size)
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
	blob, err := cs.up[i].EncodeParams(nil, p, ref)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	dec, err := codec.DecodeParams(blob, ref)
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

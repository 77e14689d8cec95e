package fed

// codec.go is Run's side of the internal/codec tiers, which have one path:
// the transport's. With Config.Codec set, Run puts each in-process client
// that is not already a transport proxy behind an in-process link
// (newLocalLink), so one proxy and one party handler code every payload,
// over a socket or not, and Run books the blob sizes its links moved; a
// codec-less run books raw sizes whatever its proxies negotiated. Decoded
// uploads go back to the pool after aggregation, and a run-wide
// broadcastMemo encodes each broadcast once per reference state.

import (
	"sync"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// broadcastMemo encodes each broadcast once per distinct (global, reference)
// pair and hands the same blob to every party holding that reference: every
// link of a run, in process or over TCP, shares one. The downlink is always
// the lossless Delta tier, which keeps no error-feedback residual, so one
// encoder serves every party and a shared blob is exactly what a per-party
// encode would have produced. It also turns each global into a codec.Ref
// once, so a global's checksum is taken once however many parties come to
// hold it.
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

// newBroadcastMemo returns an empty memo whose encodes trace under tr's
// active context.
func newBroadcastMemo(tr *obs.Tracer) *broadcastMemo {
	m := &broadcastMemo{enc: codec.NewEncoder(codec.Options{Kind: codec.Delta}), blobs: make(map[*nn.Params][]byte)}
	m.enc.SetTrace(tr, tr.Active)
	return m
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

// linkClients returns the clients a run with codec o drives: each client
// that is not already a transport proxy goes behind an in-process link, and
// every link shares one broadcast memo.
func linkClients(clients []Client, o codec.Options, rec telemetry.Recorder, tr *obs.Tracer) []Client {
	memo := newBroadcastMemo(tr)
	out := make([]Client, len(clients))
	for i, c := range clients {
		if _, ok := c.(partyLink); ok {
			out[i] = c
			continue
		}
		out[i] = newLocalLink(c, o, memo, rec, tr)
	}
	return out
}

// bookUp books one upload's raw and blob sizes: the direction the
// configured tier compresses, and the pair the ≥4× acceptance gate reads.
func (st *runState) bookUp(raw, enc int64) {
	if !st.rec.Enabled() {
		return
	}
	st.rec.Count(codec.MetricBytesRaw, raw)
	st.rec.Count(codec.MetricBytesEncoded, enc)
	st.upMu.Lock()
	st.upRaw += raw
	st.upEnc += enc
	ratio := float64(st.upRaw) / float64(st.upEnc)
	st.upMu.Unlock()
	st.rec.Gauge(st.ratioKey, ratio) //fedomdvet:ignore per-tier gauge; base key is the MetricRatioPrefix constant, suffix is the closed codec.Options.Name set
}

// sendParams installs global on client i under the per-call timeout and
// returns the downlink bytes it cost: the blob a coded link carried when
// the run config names a codec, else the raw size.
func (st *runState) sendParams(i int, global *nn.Params) (int64, error) {
	c := st.clients[i]
	n := int64(-1)
	err := st.call(i, func() (e error) {
		if l, ok := c.(partyLink); ok {
			n, e = l.sendParams(global)
			return e
		}
		return c.SetParams(global)
	})
	if err != nil || n < 0 || !st.cfg.Codec.Enabled() {
		return int64(global.Bytes()), err
	}
	if st.rec.Enabled() {
		st.rec.Count(codec.MetricBytesRawDown, int64(global.Bytes()))
		st.rec.Count(codec.MetricBytesEncodedDown, n)
	}
	return n, nil
}

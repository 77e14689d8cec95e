package fed

// transport.go implements the federated protocol's wire: the server
// listens on a net.Listener, each party connects from its own process (or
// goroutine) and serves its local client over a length-delimited gob RPC
// stream, and the coordinator drives the connections through proxy Clients
// so Run's round logic — FedAvg, moment exchange, aux state, accounting — is
// reused verbatim. The party end answers through one partyHandler; an
// in-process run with a codec (see codec.go) puts each client behind the
// same proxy and handler with no connection between them, so a codec has
// one implementation.
//
// One request is in flight per connection at a time, matching Run's
// guarantee that a client is never called concurrently with itself.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync/atomic"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// MetricWireResets counts wire-codec reference-chain resets (either side
// losing its delta base: reconnects, failed broadcasts, decode desyncs). A
// process-global counter so Run can diff it per round for the health
// monitor's codec_resets rule without threading state through the proxies.
const MetricWireResets = "fed/codec_resets"

var wireResets = telemetry.NewCounter(MetricWireResets)

// TransportOptions configures the coordinator side of the RPC transport.
type TransportOptions struct {
	// Recorder receives per-op RPC latency histograms and payload byte
	// counters ("rpc/coord/…"). Nil disables transport telemetry.
	Recorder telemetry.Recorder
	// Tracer emits one "rpc/coord/latency" span per request, parented at the
	// tracer's active context (the current round span), and stamps the
	// trace/span IDs into the request frame so the party's handling spans
	// link under the coordinator's round. Nil disables trace propagation.
	Tracer *obs.Tracer
	// ReadTimeout bounds each wait for a party's reply. It covers the
	// party's compute for that request — TrainLocal included — so size it
	// above the slowest expected local epoch. 0 means no deadline (a hung
	// party then stalls the synchronous round forever, the pre-deadline
	// behaviour).
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write. 0 means no deadline.
	WriteTimeout time.Duration
	// MaxRetries is how many times a failed request is retried after
	// reconnecting. 0 disables retry. Retries require Reconnect: a gob
	// stream cannot be resumed on a connection that failed mid-message, so
	// every retry runs on a fresh connection. Application-level errors
	// (the party handled the request and said no), deadline expiries (left
	// to the failure policy), and Shutdown are never retried.
	MaxRetries int
	// RetryBackoff is the initial backoff before the first retry; it
	// doubles per attempt, is capped at 5s, and carries a deterministic
	// ±50% jitter derived from RetrySeed and the party name. 0 means 50ms.
	RetryBackoff time.Duration
	// RetrySeed seeds the jitter so chaotic runs stay reproducible.
	RetrySeed int64
	// Reconnect returns a fresh connection to the named party. The
	// transport completes the hello handshake on it and verifies the name
	// before reissuing the request.
	Reconnect func(name string) (net.Conn, error)
	// Codec requests a wire codec for parameter payloads. During the hello
	// handshake each party advertises the protocol versions it speaks; a
	// party advertising v2 is sent the codec choice and both sides switch
	// SetParams/GetParams to length-delimited codec blobs (see
	// internal/codec), whose sizes a Run configured with a codec books. A
	// party advertising nothing or only v1 — an old binary — keeps the v0
	// raw-gob format on its connection, booked at raw size; the formats
	// coexist per-connection. The zero value disables negotiation entirely.
	Codec codec.Options
}

// ServeOptions configures the party side of the RPC transport.
type ServeOptions struct {
	// Recorder receives per-op request-handling histograms and payload
	// byte counters ("rpc/party/…"). Nil disables transport telemetry.
	Recorder telemetry.Recorder
	// Tracer emits one "rpc/party/handle" span per request, parented at the
	// trace context the coordinator stamped into the frame — the party's
	// half of cross-process trace propagation. Nil disables it.
	Tracer *obs.Tracer
	// DialTimeout bounds the initial connection to the coordinator
	// (ServeClientOpts only). 0 means the 30s default.
	DialTimeout time.Duration
	// ReadTimeout bounds each wait for the next coordinator request. Note
	// a party legitimately sits idle while its peers finish the round, so
	// this must cover the whole round, not one request. 0 (recommended)
	// means no deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. 0 means no deadline.
	WriteTimeout time.Duration
}

// countingConn wraps a net.Conn with byte counters so payload sizes per
// message can be measured at the transport layer, where gob streams directly
// to the socket.
type countingConn struct {
	net.Conn
	rx, tx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// wireDense is the gob form of a dense matrix.
type wireDense struct {
	Rows, Cols int
	Data       []float64
}

func toWire(m *mat.Dense) wireDense {
	if m == nil {
		return wireDense{}
	}
	// gob serialises Data inside Encode and holds no reference afterwards,
	// and the encode completes before the call returns, so the wire struct
	// can alias the matrix's backing array — no copy.
	return wireDense{Rows: m.Rows(), Cols: m.Cols(), Data: m.Data()}
}

func fromWire(w wireDense) *mat.Dense {
	if w.Rows == 0 && w.Cols == 0 {
		return mat.New(0, 0)
	}
	// Every message decodes into a fresh zero-valued struct, so gob
	// allocated Data specifically for this matrix: wrap it — no copy.
	return mat.NewFromData(w.Rows, w.Cols, w.Data)
}

// wireParams is the gob form of a parameter set.
type wireParams struct {
	Names []string
	Mats  []wireDense
}

func paramsToWire(p *nn.Params) *wireParams {
	if p == nil {
		return nil
	}
	w := &wireParams{Names: p.Names()}
	for i := 0; i < p.Len(); i++ {
		w.Mats = append(w.Mats, toWire(p.At(i)))
	}
	return w
}

func paramsFromWire(w *wireParams) *nn.Params {
	if w == nil {
		return nil
	}
	p := nn.NewParams()
	for i, name := range w.Names {
		p.Add(name, fromWire(w.Mats[i]))
	}
	return p
}

func vecsToWire(vs []*mat.Dense) []wireDense {
	out := make([]wireDense, len(vs))
	for i, v := range vs {
		out[i] = toWire(v)
	}
	return out
}

func vecsFromWire(ws []wireDense) []*mat.Dense {
	out := make([]*mat.Dense, len(ws))
	for i, w := range ws {
		out[i] = fromWire(w)
	}
	return out
}

// rpc operation codes.
const (
	opSetParams      = "SetParams"
	opTrainLocal     = "TrainLocal"
	opEvalVal        = "EvalVal"
	opEvalTest       = "EvalTest"
	opGetParams      = "GetParams"
	opLocalMeans     = "LocalMeans"
	opCentralMoments = "CentralMoments"
	opSetGlobalStats = "SetGlobalStats"
	opUploadAux      = "UploadAux"
	opDownloadAux    = "DownloadAux"
	opShutdown       = "Shutdown"
	opNegotiateCodec = "NegotiateCodec"
)

// opMetricSuffix maps an rpc op code to the snake_case segment used in
// telemetry keys, so per-op metric series follow the pkg/snake_case
// convention regardless of the wire spelling (caught by fedomdvet's
// telemetrykey analyzer: the PascalCase op codes used to leak into key
// names and fork the dashboard naming scheme).
func opMetricSuffix(op string) string {
	switch op {
	case opSetParams:
		return "set_params"
	case opTrainLocal:
		return "train_local"
	case opEvalVal:
		return "eval_val"
	case opEvalTest:
		return "eval_test"
	case opGetParams:
		return "get_params"
	case opLocalMeans:
		return "local_means"
	case opCentralMoments:
		return "central_moments"
	case opSetGlobalStats:
		return "set_global_stats"
	case opUploadAux:
		return "upload_aux"
	case opDownloadAux:
		return "download_aux"
	case opShutdown:
		return "shutdown"
	case opNegotiateCodec:
		return "negotiate_codec"
	}
	return "unknown"
}

// MetricRPCRetries counts coordinator-side RPC retries after reconnects.
const MetricRPCRetries = "rpc/coord/retries"

// appError is an application-level error relayed verbatim from the party.
// The request was delivered and handled, so the transport never retries it.
type appError string

func (e appError) Error() string { return string(e) }

// hello is the first message a party sends after connecting.
//
// Field evolution is safe under gob: an old coordinator skips fields it does
// not know, and an old party simply never sets them — which is exactly the
// negotiation fallback (no Codecs advertised → v0 raw format).
type hello struct {
	Name       string
	NumSamples int
	Moment     bool // implements MomentClient
	Aux        bool // implements AuxClient
	// Codecs advertises the wire protocol versions this party speaks
	// (codec.WireVersions). Empty on v0 binaries, [1] on v1 ones.
	Codecs []uint8
}

// rpcRequest is a coordinator→party message.
type rpcRequest struct {
	Op      string
	Round   int
	Params  *wireParams
	Means   []wireDense
	Central [][]wireDense
	// Blob carries a codec-encoded parameter payload for opSetParams once a
	// codec is negotiated; Params stays nil then.
	Blob []byte
	// CodecKind/CodecBits/CodecTopK carry the coordinator's codec choice in
	// an opNegotiateCodec request.
	CodecKind, CodecBits uint8
	CodecTopK            float64
	// TraceID/SpanID carry the coordinator's trace context so party-side
	// spans parent under the round that issued the request. Zero (including
	// frames from pre-tracing coordinators, which gob decodes as zero)
	// means "no context" and roots a local trace instead.
	TraceID, SpanID uint64
}

// rpcResponse is a party→coordinator reply.
type rpcResponse struct {
	Err            string
	Loss           float64
	Correct, Total int
	Params         *wireParams
	Means          []wireDense
	Central        [][]wireDense
	N              int
	// Blob carries the codec-encoded upload for opGetParams once a codec is
	// negotiated; Params stays nil then.
	Blob []byte
}

// ServeClient connects to the coordinator at addr and serves the local
// client until the coordinator sends Shutdown or the connection closes.
// It returns nil on a clean shutdown.
func ServeClient(addr string, c Client) error {
	return ServeClientOpts(addr, c, ServeOptions{})
}

// ServeClientOpts is ServeClient with explicit transport options.
func ServeClientOpts(addr string, c Client, opts ServeOptions) error {
	dial := opts.DialTimeout
	if dial <= 0 {
		dial = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dial)
	if err != nil {
		return fmt.Errorf("fed: dial coordinator: %w", err)
	}
	defer conn.Close()
	return ServeClientConnOpts(conn, c, opts)
}

// ServeClientConnOpts serves the client over an established connection with
// explicit transport options: per-request read/write deadlines and a
// Recorder for per-op handling time and payload sizes.
func ServeClientConnOpts(conn net.Conn, c Client, opts ServeOptions) error {
	rec := telemetry.Or(opts.Recorder)
	tracer := opts.Tracer
	spans := obs.NewSpans(rec, tracer)
	cc := &countingConn{Conn: conn}
	enc := gob.NewEncoder(cc)
	dec := gob.NewDecoder(cc)
	h := newPartyHandler(c, rec, tracer)
	if err := enc.Encode(hello{Name: c.Name(), NumSamples: c.NumSamples(), Moment: h.mc != nil, Aux: h.ac != nil,
		Codecs: codec.WireVersions()}); err != nil {
		return fmt.Errorf("fed: handshake: %w", err)
	}
	for {
		if opts.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
		}
		rx0 := cc.rx.Load()
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("fed: reading request: %w", err)
		}
		// Party-side span, parented at the coordinator's stamped context —
		// the cross-process causal link. Published as the active context so
		// codec encode spans nest under the request that triggered them.
		reqCtx := obs.SpanContext{Trace: obs.TraceID(req.TraceID), Span: obs.SpanID(req.SpanID)}
		tsp := spans.Start(reqCtx, obs.SpanPartyHandle)
		tsp.SetOp(opMetricSuffix(req.Op))
		tracer.SetActive(tsp.Context())
		resp := h.handle(&req, tsp.Context())
		tsp.End()
		if opts.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		}
		tx0 := cc.tx.Load()
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("fed: writing response: %w", err)
		}
		if req.Op == opShutdown {
			return nil
		}
		if rec.Enabled() {
			rec.Count("rpc/party/bytes_rx/"+opMetricSuffix(req.Op), cc.rx.Load()-rx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
			rec.Count("rpc/party/bytes_tx/"+opMetricSuffix(req.Op), cc.tx.Load()-tx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
		}
	}
}

// partyHandler is the party end of the protocol: it answers one request at a
// time against the local client. ServeClientConnOpts feeds it the requests
// read off a connection; an in-process link (see newLocalLink) calls it
// directly.
type partyHandler struct {
	c      Client
	mc     MomentClient // nil unless c implements MomentClient
	ac     AuxClient    // nil unless c implements AuxClient
	rec    telemetry.Recorder
	tracer *obs.Tracer
	// Wire-codec state, armed by opNegotiateCodec: the uplink encoder (which
	// owns this party's error-feedback residuals) and the reference state —
	// the last global this party decoded, which both directions encode
	// against, hashed once when it is decoded. The coordinator tracks the
	// mirror of this state per party and falls back to absolute blobs
	// whenever either side loses it (fresh connection, failed broadcast,
	// dropped update), so a desync heals within one exchange.
	up  *codec.Encoder
	ref codec.Ref
	// upBuf is the uplink blob's buffer, reused by every GetParams: the
	// reply is consumed (written to the connection, or decoded by the
	// in-process proxy) before the next request arrives.
	upBuf []byte
}

func newPartyHandler(c Client, rec telemetry.Recorder, tracer *obs.Tracer) *partyHandler {
	h := &partyHandler{c: c, rec: telemetry.Or(rec), tracer: tracer}
	h.mc, _ = c.(MomentClient)
	h.ac, _ = c.(AuxClient)
	return h
}

// arm switches the parameter payloads to codec blobs under o, from no
// reference: the next broadcast the party accepts is absolute.
func (h *partyHandler) arm(o codec.Options) {
	h.up = codec.NewEncoder(o)
	h.up.SetTrace(h.tracer, h.tracer.Active)
	codec.PutParams(h.ref.Params())
	h.ref = codec.Ref{}
}

// handle answers one request; ctx parents the span of a broadcast decode.
// Shutdown asks nothing of the client: the serve loop ends after replying.
func (h *partyHandler) handle(req *rpcRequest, ctx obs.SpanContext) (resp rpcResponse) {
	var err error
	switch c := h.c; req.Op {
	case opShutdown:
	case opNegotiateCodec:
		o := codec.Options{Kind: codec.Kind(req.CodecKind), Bits: int(req.CodecBits), TopK: req.CodecTopK}
		if err = o.Validate(); err == nil { // a refusal keeps the coordinator on raw gob
			h.arm(o)
		}
	case opSetParams:
		if req.Blob == nil {
			err = c.SetParams(paramsFromWire(req.Params))
		} else {
			err = h.setBlob(req.Blob, ctx)
		}
	case opTrainLocal:
		resp.Loss, err = c.TrainLocal(req.Round)
	case opEvalVal:
		resp.Correct, resp.Total = c.EvalVal()
	case opEvalTest:
		resp.Correct, resp.Total = c.EvalTest()
	case opGetParams:
		if h.up == nil {
			resp.Params = paramsToWire(c.Params())
			break
		}
		t0 := time.Now()
		if h.upBuf, err = h.up.EncodeRef(h.upBuf[:0], c.Params(), h.ref); err == nil {
			h.rec.Count(codec.MetricEncodeNs, time.Since(t0).Nanoseconds())
			resp.Blob = h.upBuf
		}
	case opLocalMeans, opCentralMoments, opSetGlobalStats:
		if h.mc == nil {
			err = errors.New("fed: client does not implement MomentClient")
			break
		}
		err = h.moments(req, &resp)
	case opUploadAux, opDownloadAux:
		if h.ac == nil {
			err = errors.New("fed: client does not implement AuxClient")
		} else if req.Op == opUploadAux {
			resp.Params = paramsToWire(h.ac.UploadAux())
		} else {
			err = h.ac.DownloadAux(paramsFromWire(req.Params))
		}
	default:
		err = fmt.Errorf("fed: unknown op %q", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// setBlob decodes a broadcast blob against the party's reference and
// installs it. The decoded set becomes the new reference. An absolute blob
// starts a new reference chain, so it also drops the uplink residuals, which
// only have meaning against the chain of frames the coordinator applied.
func (h *partyHandler) setBlob(blob []byte, ctx obs.SpanContext) error {
	t0 := time.Now()
	dec, absolute, err := codec.DecodeParamsTraced(blob, h.ref, h.tracer, ctx)
	if err != nil {
		// Reference desync: drop our side so the coordinator's absolute
		// re-broadcast can resynchronise both.
		if h.ref.Params() != nil {
			wireResets.Add(1)
		}
		codec.PutParams(h.ref.Params())
		h.ref = codec.Ref{}
		h.up.Reset()
		return err
	}
	h.rec.Count(codec.MetricDecodeNs, time.Since(t0).Nanoseconds())
	if absolute {
		h.up.Reset()
	}
	err = h.c.SetParams(dec)
	codec.PutParams(h.ref.Params())
	h.ref = codec.NewRef(dec) // the model copied the values; keep the set as reference
	return err
}

// moments answers the three statistics-exchange requests.
func (h *partyHandler) moments(req *rpcRequest, resp *rpcResponse) (err error) {
	switch req.Op {
	case opLocalMeans:
		var means []*mat.Dense
		means, resp.N, err = h.mc.LocalMeans()
		resp.Means = vecsToWire(means)
	case opCentralMoments:
		var moms [][]*mat.Dense
		moms, resp.N, err = h.mc.CentralAroundGlobal(vecsFromWire(req.Means))
		for _, layer := range moms {
			resp.Central = append(resp.Central, vecsToWire(layer))
		}
	case opSetGlobalStats:
		central := make([][]*mat.Dense, len(req.Central))
		for l, layer := range req.Central {
			central[l] = vecsFromWire(layer)
		}
		h.mc.SetGlobalStats(vecsFromWire(req.Means), central)
	}
	return err
}

// partyLink is the coordinator end of a party: remoteClient and its
// capability variants, over a connection or in process (newLocalLink).
type partyLink interface {
	Client
	// sendParams and recvParams are SetParams and Params that also report
	// the size of the blob moved, -1 on a raw-gob link. A received set that
	// came in a blob is pooled: release it with codec.PutParams.
	sendParams(global *nn.Params) (int64, error)
	recvParams() (*nn.Params, int64, error)
	// forget drops the party's reference: the next broadcast is absolute,
	// which also resets the party's uplink residuals.
	forget()
	// shutdown ends a connected party's serve loop and closes the link.
	shutdown()
}

// remoteClient proxies a party as a Client.
type remoteClient struct {
	name    string
	samples int
	// local, when set, is the party end of an in-process link: callOnce
	// hands it each request directly, with no socket, gob, goroutine, rpc
	// span or rpc counter, and the connection fields below stay unused.
	local  *partyHandler
	enc    *gob.Encoder
	dec    *gob.Decoder
	conn   *countingConn
	rec    telemetry.Recorder
	tracer *obs.Tracer
	spans  obs.Spans
	opts   TransportOptions
	// memo is set once the party accepted an opNegotiateCodec request, and
	// SetParams/GetParams then move codec blobs: memo encodes the run's
	// broadcasts (lossless Delta: the global must arrive exactly) once per
	// reference. lastSent is the reference the party is known to hold, the
	// last global it confirmed; any lost exchange or dropped update resets
	// it, so the next broadcast is absolute and re-synchronises both ends.
	memo     *broadcastMemo
	lastSent codec.Ref
	// retired is set once an exchange failed below the application layer
	// (a write or read error, deadline expiries included) and the
	// connection was closed: a reply still in flight would otherwise be
	// read as the answer to the next request. The next call reconnects
	// through TransportOptions.Reconnect or fails naming the party.
	retired bool
}

// newLocalLink puts c behind the transport's proxy in this process, with
// the codec o armed on both ends and memo encoding its broadcasts. rec and
// tracer receive the codec work of both ends.
func newLocalLink(c Client, o codec.Options, memo *broadcastMemo, rec telemetry.Recorder, tracer *obs.Tracer) partyLink {
	h := newPartyHandler(c, rec, tracer)
	h.arm(o)
	r := &remoteClient{name: c.Name(), samples: c.NumSamples(), local: h, rec: telemetry.Or(rec),
		tracer: tracer, memo: memo}
	return r.withCapabilities(h.mc != nil, h.ac != nil)
}

// withCapabilities returns r as the proxy type that carries the party's
// optional surfaces: MomentClient, AuxClient, both or neither.
func (r *remoteClient) withCapabilities(moment, aux bool) partyLink {
	switch {
	case moment && aux:
		return &remoteMomentAuxClient{r, remoteMomentClient{r}, remoteAuxClient{r}}
	case moment:
		return &remoteMomentClient{r}
	case aux:
		return &remoteAuxClient{r}
	}
	return r
}

// call performs one request/response exchange with bounded retry: a
// transport-level failure triggers up to MaxRetries reconnect-and-reissue
// attempts under exponential backoff with deterministic jitter. Application
// errors, deadline expiries (handled by the failure policy, which knows the
// party is slow rather than unreachable), and Shutdown pass through
// unretried.
func (r *remoteClient) call(req rpcRequest) (rpcResponse, error) {
	return r.callBuild(func() (rpcRequest, error) { return req, nil })
}

// callBuild is call with the request built per attempt: a reconnect resets
// the codec reference state, so a retried SetParams must re-encode its blob
// against the fresh (nil) reference rather than reissue stale bytes. A
// retired connection is replaced first.
func (r *remoteClient) callBuild(build func() (rpcRequest, error)) (rpcResponse, error) {
	if r.retired {
		if r.opts.Reconnect == nil {
			return rpcResponse{}, fmt.Errorf("fed: connection to %s closed after an earlier transport error", r.name)
		}
		if err := r.reconnect(); err != nil {
			return rpcResponse{}, fmt.Errorf("fed: reconnect to %s: %w", r.name, err)
		}
	}
	req, err := build()
	if err != nil {
		return rpcResponse{}, err
	}
	resp, err := r.callOnce(req)
	if err == nil || r.opts.MaxRetries <= 0 || r.opts.Reconnect == nil || req.Op == opShutdown {
		return resp, err
	}
	for attempt := 1; attempt <= r.opts.MaxRetries; attempt++ {
		if !retryable(err) {
			return resp, err
		}
		time.Sleep(r.backoff(attempt))
		if rerr := r.reconnect(); rerr != nil {
			return resp, fmt.Errorf("fed: reconnect to %s: %w (after %v)", r.name, rerr, err)
		}
		r.rec.Count(MetricRPCRetries, 1)
		if req, err = build(); err != nil {
			return resp, err
		}
		resp, err = r.callOnce(req)
		if err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// retryable reports whether err is a transport fault a fresh connection can
// fix. Application errors and timeouts are final.
func retryable(err error) bool {
	var ae appError
	if errors.As(err, &ae) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return true
}

// backoff returns the pre-retry sleep for the given attempt: RetryBackoff
// doubled per attempt, capped at 5s, scaled by a deterministic jitter in
// [0.5, 1.5) derived from the party name, seed, and attempt number.
func (r *remoteClient) backoff(attempt int) time.Duration {
	base := r.opts.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > 5*time.Second || d <= 0 {
		d = 5 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(r.name))
	mix := h.Sum64() ^ uint64(r.opts.RetrySeed) ^ uint64(attempt)*0x9e3779b97f4a7c15
	frac := 0.5 + float64(mix%1024)/1024.0
	return time.Duration(float64(d) * frac)
}

// reconnect replaces the broken connection with a fresh one from the
// Reconnect hook and re-runs the hello handshake, verifying the same party
// answered. Until it succeeds the proxy stays retired.
func (r *remoteClient) reconnect() error {
	r.retire()
	conn, err := r.opts.Reconnect(r.name)
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: conn}
	enc := gob.NewEncoder(cc)
	dec := gob.NewDecoder(cc)
	if r.opts.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
	}
	var h hello
	if err := dec.Decode(&h); err != nil {
		conn.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	if h.Name != r.name {
		conn.Close()
		return fmt.Errorf("expected party %s, got %s", r.name, h.Name)
	}
	r.conn, r.enc, r.dec, r.retired = cc, enc, dec, false
	// The party restarted its serve loop, so its codec reference and
	// error-feedback residuals are gone. Renegotiate and start from an
	// absolute broadcast.
	r.resync()
	if r.memo != nil {
		if !wireSupported(h.Codecs, codec.WireV2) {
			r.retire()
			return fmt.Errorf("party %s no longer advertises wire v2", r.name)
		}
		if _, err := r.callOnce(negotiateRequest(r.opts.Codec)); err != nil {
			r.retire()
			return fmt.Errorf("codec renegotiation with %s: %w", r.name, err)
		}
	}
	return nil
}

// negotiateRequest packs a codec choice into an opNegotiateCodec request.
func negotiateRequest(o codec.Options) rpcRequest {
	return rpcRequest{Op: opNegotiateCodec,
		CodecKind: uint8(o.Kind), CodecBits: uint8(o.Bits), CodecTopK: o.TopK}
}

// wireSupported reports whether the advertised protocol versions include v.
func wireSupported(versions []uint8, v uint8) bool {
	for _, got := range versions {
		if got == v {
			return true
		}
	}
	return false
}

// retire closes the connection and marks the proxy for a reconnect.
func (r *remoteClient) retire() {
	_ = r.conn.Close()
	r.retired = true
}

// callOnce performs one request/response exchange, applying the configured
// per-request deadlines and recording latency and payload sizes per op. A
// deadline expiry surfaces as an error naming the party (via the "to/from
// %s" wrapping) that satisfies net.Error with Timeout() == true. Any write
// or read error retires the connection: after it the stream can no longer
// be trusted to pair the next reply with the next request.
func (r *remoteClient) callOnce(req rpcRequest) (rpcResponse, error) {
	if r.local != nil {
		resp := r.local.handle(&req, r.tracer.Active())
		if resp.Err != "" {
			return resp, appError(resp.Err)
		}
		return resp, nil
	}
	var tx0, rx0 int64
	if r.rec.Enabled() {
		tx0, rx0 = r.conn.tx.Load(), r.conn.rx.Load()
	}
	// The rpc span parents at the tracer's active context (the current round
	// span) and its identity rides in the request frame, so the party's
	// handling span becomes its child across the process boundary. It is
	// retired on every exit: End on a completed exchange, Fail on a broken
	// one — a failed exchange is not a latency observation.
	sp := r.spans.Start(r.tracer.Active(), obs.SpanRPC)
	sp.SetOp(opMetricSuffix(req.Op))
	sp.SetAttr(obs.AttrParty, r.name)
	if ctx := sp.Context(); ctx.Valid() {
		req.TraceID, req.SpanID = uint64(ctx.Trace), uint64(ctx.Span)
	}
	if r.opts.WriteTimeout > 0 {
		_ = r.conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	}
	if err := r.enc.Encode(req); err != nil {
		r.retire()
		err = fmt.Errorf("fed: rpc %s to %s: %w", req.Op, r.name, err)
		sp.Fail(err)
		return rpcResponse{}, err
	}
	if r.opts.ReadTimeout > 0 {
		_ = r.conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
	}
	var resp rpcResponse
	if err := r.dec.Decode(&resp); err != nil {
		r.retire()
		err = fmt.Errorf("fed: rpc %s reply from %s: %w", req.Op, r.name, err)
		sp.Fail(err)
		return rpcResponse{}, err
	}
	sp.End()
	if r.rec.Enabled() {
		r.rec.Count("rpc/coord/bytes_tx/"+opMetricSuffix(req.Op), r.conn.tx.Load()-tx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
		r.rec.Count("rpc/coord/bytes_rx/"+opMetricSuffix(req.Op), r.conn.rx.Load()-rx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
	}
	if resp.Err != "" {
		return resp, appError(resp.Err)
	}
	return resp, nil
}

func (r *remoteClient) Name() string    { return r.name }
func (r *remoteClient) NumSamples() int { return r.samples }

// Params never returns nil: it cannot report errors, so a failed exchange,
// an undecodable blob or a reply without parameters yields an empty set,
// which fails loudly in aggregation with a shape mismatch.
func (r *remoteClient) Params() *nn.Params {
	p, _, err := r.recvParams()
	if err != nil {
		return nn.NewParams()
	}
	return p
}

func (r *remoteClient) recvParams() (*nn.Params, int64, error) {
	resp, err := r.call(rpcRequest{Op: opGetParams})
	if err != nil {
		return nil, 0, err
	}
	if resp.Blob == nil {
		if resp.Params == nil {
			return nil, 0, fmt.Errorf("fed: %s sent no parameters", r.name)
		}
		return paramsFromWire(resp.Params), -1, nil
	}
	t0 := time.Now()
	p, _, err := codec.DecodeParamsTraced(resp.Blob, r.lastSent, r.tracer, r.tracer.Active())
	if err != nil {
		r.resync()
		return nil, 0, err
	}
	r.rec.Count(codec.MetricDecodeNs, time.Since(t0).Nanoseconds())
	return p, int64(len(resp.Blob)), nil
}

func (r *remoteClient) SetParams(global *nn.Params) error {
	_, err := r.sendParams(global)
	return err
}

func (r *remoteClient) sendParams(global *nn.Params) (int64, error) {
	if r.memo == nil {
		_, err := r.call(rpcRequest{Op: opSetParams, Params: paramsToWire(global)})
		return -1, err
	}
	var next codec.Ref
	var size int64
	_, err := r.callBuild(func() (rpcRequest, error) {
		blob, ref, encodeNs, eerr := r.memo.encode(global, r.lastSent)
		if eerr != nil {
			return rpcRequest{}, fmt.Errorf("fed: codec encode for %s: %w", r.name, eerr)
		}
		if encodeNs > 0 {
			r.rec.Count(codec.MetricEncodeNs, encodeNs)
		}
		next, size = ref, int64(len(blob))
		return rpcRequest{Op: opSetParams, Blob: blob}, nil
	})
	if err != nil {
		// The party may or may not have applied the blob; assume nothing.
		r.resync()
		return 0, err
	}
	r.lastSent = next
	return size, nil
}

func (r *remoteClient) forget() { r.lastSent = codec.Ref{} }

// resync drops the party's reference after a lost exchange, counting the
// reset, so the next broadcast is absolute and re-synchronises both ends.
func (r *remoteClient) resync() {
	if r.lastSent.Params() != nil {
		wireResets.Add(1)
	}
	r.forget()
}

func (r *remoteClient) TrainLocal(round int) (float64, error) {
	resp, err := r.call(rpcRequest{Op: opTrainLocal, Round: round})
	return resp.Loss, err
}

func (r *remoteClient) EvalVal() (int, int) {
	resp, err := r.call(rpcRequest{Op: opEvalVal})
	if err != nil {
		return 0, 0
	}
	return resp.Correct, resp.Total
}

func (r *remoteClient) EvalTest() (int, int) {
	resp, err := r.call(rpcRequest{Op: opEvalTest})
	if err != nil {
		return 0, 0
	}
	return resp.Correct, resp.Total
}

func (r *remoteClient) shutdown() {
	if r.local != nil {
		return
	}
	if !r.retired {
		_, _ = r.callOnce(rpcRequest{Op: opShutdown})
	}
	_ = r.conn.Close()
}

// remoteMomentClient adds the MomentClient surface.
type remoteMomentClient struct{ *remoteClient }

// remoteAuxClient adds the AuxClient surface.
type remoteAuxClient struct{ *remoteClient }

// remoteMomentAuxClient carries both surfaces; its own *remoteClient keeps
// the shared methods from being ambiguous between the two.
type remoteMomentAuxClient struct {
	*remoteClient
	remoteMomentClient
	remoteAuxClient
}

func (r remoteMomentClient) LocalMeans() ([]*mat.Dense, int, error) {
	resp, err := r.call(rpcRequest{Op: opLocalMeans})
	if err != nil {
		return nil, 0, err
	}
	return vecsFromWire(resp.Means), resp.N, nil
}

func (r remoteMomentClient) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	resp, err := r.call(rpcRequest{Op: opCentralMoments, Means: vecsToWire(globalMeans)})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]*mat.Dense, len(resp.Central))
	for l, layer := range resp.Central {
		out[l] = vecsFromWire(layer)
	}
	return out, resp.N, nil
}

func (r remoteMomentClient) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	wire := make([][]wireDense, len(central))
	for l, layer := range central {
		wire[l] = vecsToWire(layer)
	}
	_, _ = r.call(rpcRequest{Op: opSetGlobalStats, Means: vecsToWire(means), Central: wire})
}

func (r remoteAuxClient) UploadAux() *nn.Params {
	resp, err := r.call(rpcRequest{Op: opUploadAux})
	if err != nil {
		return nil
	}
	return paramsFromWire(resp.Params)
}

func (r remoteAuxClient) DownloadAux(global *nn.Params) error {
	_, err := r.call(rpcRequest{Op: opDownloadAux, Params: paramsToWire(global)})
	return err
}

// AcceptClientsOpts waits for n parties to connect and complete their
// handshake, returning proxy Clients in connection order. The proxies apply
// the per-request deadlines of opts and record RPC telemetry. On an error it
// closes every connection it accepted, so no party waits on it.
func AcceptClientsOpts(ln net.Listener, n int, opts TransportOptions) (_ []Client, err error) {
	clients := make([]Client, 0, n)
	var conns []net.Conn
	defer func() {
		if err != nil {
			for _, conn := range conns {
				_ = conn.Close()
			}
		}
	}()
	memo := newBroadcastMemo(opts.Tracer)
	for len(clients) < n {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("fed: accept: %w", err)
		}
		conns = append(conns, conn)
		cc := &countingConn{Conn: conn}
		enc := gob.NewEncoder(cc)
		dec := gob.NewDecoder(cc)
		var h hello
		if err := dec.Decode(&h); err != nil {
			return nil, fmt.Errorf("fed: handshake: %w", err)
		}
		r := &remoteClient{name: h.Name, samples: h.NumSamples, enc: enc, dec: dec,
			conn: cc, rec: telemetry.Or(opts.Recorder), tracer: opts.Tracer,
			spans: obs.NewSpans(opts.Recorder, opts.Tracer), opts: opts}
		if opts.Codec.Enabled() && wireSupported(h.Codecs, codec.WireV2) {
			if _, err := r.callOnce(negotiateRequest(opts.Codec)); err != nil {
				var ae appError
				if !errors.As(err, &ae) {
					return nil, fmt.Errorf("fed: codec negotiation with %s: %w", h.Name, err)
				}
				// The party understood the request and refused the codec
				// (e.g. an options set its build rejects): stay on v0 raw.
			} else {
				r.memo = memo
			}
		}
		clients = append(clients, r.withCapabilities(h.Moment, h.Aux))
	}
	return clients, nil
}

// RunDistributed accepts n parties on ln and drives the full federated
// protocol over the network, reusing Run's round logic. Parties are shut
// down cleanly when the run finishes. cfg.Recorder, when set, also receives
// the transport's RPC metrics.
func RunDistributed(cfg Config, ln net.Listener, n int) (*Result, error) {
	return RunDistributedOpts(cfg, ln, n, TransportOptions{Recorder: cfg.Recorder, Codec: cfg.Codec, Tracer: cfg.Tracer})
}

// RunDistributedOpts is RunDistributed with explicit transport options
// (per-request deadlines, a dedicated transport Recorder).
func RunDistributedOpts(cfg Config, ln net.Listener, n int, opts TransportOptions) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fed: RunDistributed needs a positive party count, got %d", n)
	}
	if !opts.Codec.Enabled() {
		// A codec chosen on the run config applies to the transport; Run
		// leaves the proxies as they are rather than linking them again.
		opts.Codec = cfg.Codec
	}
	if opts.Tracer == nil {
		opts.Tracer = cfg.Tracer
	}
	clients, err := AcceptClientsOpts(ln, n, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range clients {
			c.(partyLink).shutdown()
		}
	}()
	return Run(cfg, clients)
}

package fed

// transport.go implements a distributed deployment of the same federated
// protocol Run drives in-process: the server listens on a net.Listener, each
// party connects from its own process (or goroutine) and serves its local
// client over a length-delimited gob RPC stream, and the coordinator drives
// the connections through proxy Clients so Run's round logic — FedAvg,
// moment exchange, aux state, accounting — is reused verbatim.
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
	// Tracer emits one "rpc/coord/call" span per request, parented at the
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
	// party advertising v1 is sent the codec choice and both sides switch
	// SetParams/GetParams to length-delimited codec blobs (see
	// internal/codec). A party advertising nothing — an old binary — keeps
	// the v0 raw-gob format on its connection; the two formats coexist
	// per-connection. The zero value disables negotiation entirely.
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
	// (codec.WireVersions). Empty on v0 binaries.
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
	cc := &countingConn{Conn: conn}
	enc := gob.NewEncoder(cc)
	dec := gob.NewDecoder(cc)
	mc, isMoment := c.(MomentClient)
	ac, isAux := c.(AuxClient)
	if err := enc.Encode(hello{Name: c.Name(), NumSamples: c.NumSamples(), Moment: isMoment, Aux: isAux,
		Codecs: codec.WireVersions()}); err != nil {
		return fmt.Errorf("fed: handshake: %w", err)
	}
	// Wire-codec state, armed by opNegotiateCodec: the uplink encoder (which
	// owns this party's error-feedback residuals) and the reference state —
	// the last global this party decoded, which both directions encode
	// against, hashed once when it is decoded. The coordinator tracks the
	// mirror of this state per party and falls back to absolute blobs
	// whenever either side loses it (fresh connection, failed broadcast), so
	// a desync heals within one exchange.
	var wcEnc *codec.Encoder
	var wcRef codec.Ref
	for {
		if opts.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
		}
		rx0 := cc.rx.Load()
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return fmt.Errorf("fed: reading request: %w", err)
		}
		var resp rpcResponse
		handleSpan := telemetry.StartSpan(rec, "rpc/party/handle_seconds/"+opMetricSuffix(req.Op)) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
		// Party-side span, parented at the coordinator's stamped context —
		// the cross-process causal link. Published as the active context so
		// codec encode spans nest under the request that triggered them.
		reqCtx := obs.SpanContext{Trace: obs.TraceID(req.TraceID), Span: obs.SpanID(req.SpanID)}
		tsp := tracer.Start(reqCtx, obs.SpanPartyHandle)
		tsp.SetAttr(obs.AttrOp, opMetricSuffix(req.Op))
		tracer.SetActive(tsp.Context())
		switch req.Op {
		case opShutdown:
			handleSpan.End()
			tsp.End()
			if opts.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
			}
			return enc.Encode(rpcResponse{})
		case opNegotiateCodec:
			nopts := codec.Options{Kind: codec.Kind(req.CodecKind), Bits: int(req.CodecBits), TopK: req.CodecTopK}
			if err := nopts.Validate(); err != nil {
				resp.Err = err.Error() // app error: the coordinator falls back to raw
				break
			}
			wcEnc = codec.NewEncoder(nopts)
			wcEnc.SetTrace(tracer, tracer.Active)
			codec.PutParams(wcRef.Params())
			wcRef = codec.Ref{}
		case opSetParams:
			p := req.Params
			if req.Blob != nil {
				dec, err := codec.DecodeParamsTraced(req.Blob, wcRef, tracer, tsp.Context())
				if err != nil {
					// Reference desync: drop our side so the coordinator's
					// absolute re-broadcast can resynchronise both.
					codec.PutParams(wcRef.Params())
					if wcRef.Params() != nil {
						wireResets.Add(1)
					}
					wcRef = codec.Ref{}
					// The uplink residuals were built against the dead
					// reference chain; the coordinator's absolute re-broadcast
					// starts a new one.
					wcEnc.Reset()
					resp.Err = err.Error()
					break
				}
				if err := c.SetParams(dec); err != nil {
					resp.Err = err.Error()
				}
				codec.PutParams(wcRef.Params())
				wcRef = codec.NewRef(dec) // the model copied the values; keep the set as reference
				break
			}
			if err := c.SetParams(paramsFromWire(p)); err != nil {
				resp.Err = err.Error()
			}
		case opTrainLocal:
			loss, err := c.TrainLocal(req.Round)
			resp.Loss = loss
			if err != nil {
				resp.Err = err.Error()
			}
		case opEvalVal:
			resp.Correct, resp.Total = c.EvalVal()
		case opEvalTest:
			resp.Correct, resp.Total = c.EvalTest()
		case opGetParams:
			if wcEnc != nil {
				p := c.Params()
				blob, err := wcEnc.EncodeRef(nil, p, wcRef)
				if err != nil {
					resp.Err = err.Error()
					break
				}
				resp.Blob = blob
				if rec.Enabled() {
					rec.Count(codec.MetricBytesRaw, int64(p.Bytes()))
					rec.Count(codec.MetricBytesEncoded, int64(len(blob)))
				}
				break
			}
			resp.Params = paramsToWire(c.Params())
		case opLocalMeans:
			if !isMoment {
				resp.Err = "fed: client does not implement MomentClient"
				break
			}
			means, n, err := mc.LocalMeans()
			if err != nil {
				resp.Err = err.Error()
				break
			}
			resp.Means = vecsToWire(means)
			resp.N = n
		case opCentralMoments:
			if !isMoment {
				resp.Err = "fed: client does not implement MomentClient"
				break
			}
			moms, n, err := mc.CentralAroundGlobal(vecsFromWire(req.Means))
			if err != nil {
				resp.Err = err.Error()
				break
			}
			resp.Central = make([][]wireDense, len(moms))
			for l, layer := range moms {
				resp.Central[l] = vecsToWire(layer)
			}
			resp.N = n
		case opSetGlobalStats:
			if !isMoment {
				resp.Err = "fed: client does not implement MomentClient"
				break
			}
			central := make([][]*mat.Dense, len(req.Central))
			for l, layer := range req.Central {
				central[l] = vecsFromWire(layer)
			}
			mc.SetGlobalStats(vecsFromWire(req.Means), central)
		case opUploadAux:
			if !isAux {
				resp.Err = "fed: client does not implement AuxClient"
				break
			}
			resp.Params = paramsToWire(ac.UploadAux())
		case opDownloadAux:
			if !isAux {
				resp.Err = "fed: client does not implement AuxClient"
				break
			}
			if err := ac.DownloadAux(paramsFromWire(req.Params)); err != nil {
				resp.Err = err.Error()
			}
		default:
			resp.Err = fmt.Sprintf("fed: unknown op %q", req.Op)
		}
		handleSpan.End()
		tsp.End()
		if opts.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		}
		tx0 := cc.tx.Load()
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("fed: writing response: %w", err)
		}
		if rec.Enabled() {
			rec.Count("rpc/party/bytes_rx/"+opMetricSuffix(req.Op), cc.rx.Load()-rx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
			rec.Count("rpc/party/bytes_tx/"+opMetricSuffix(req.Op), cc.tx.Load()-tx0) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
		}
	}
}

// remoteClient proxies a connected party as a Client.
type remoteClient struct {
	name    string
	samples int
	enc     *gob.Encoder
	dec     *gob.Decoder
	conn    *countingConn
	rec     telemetry.Recorder
	tracer  *obs.Tracer
	opts    TransportOptions
	// codecOn is set once the party accepted an opNegotiateCodec request;
	// SetParams/GetParams then exchange codec blobs instead of raw gob.
	codecOn bool
	// memo encodes broadcasts (always the lossless Delta tier — the global
	// must arrive exactly), once per distinct reference, for every proxy
	// AcceptClientsOpts returned. lastSent is the reference state the party
	// is known to hold: the last global it confirmed receiving, with its
	// checksum. Any failed exchange resets it to the zero Ref, forcing the
	// next broadcast to be an absolute blob, which re-synchronises both
	// ends. The Delta tier keeps no residual, so a reset leaves nothing
	// else to clear.
	memo     *broadcastMemo
	lastSent codec.Ref
}

// wireCodecNegotiated lets fed.Run's in-process codec layer skip clients
// whose connection already encodes payloads (see wireCodecClient).
func (r *remoteClient) wireCodecNegotiated() bool { return r.codecOn }

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
// against the fresh (nil) reference rather than reissue stale bytes.
func (r *remoteClient) callBuild(build func() (rpcRequest, error)) (rpcResponse, error) {
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
// answered.
func (r *remoteClient) reconnect() error {
	_ = r.conn.Close()
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
	r.conn, r.enc, r.dec = cc, enc, dec
	// The party restarted its serve loop, so its codec reference and
	// error-feedback residuals are gone. Renegotiate and start from an
	// absolute broadcast.
	if r.lastSent.Params() != nil {
		wireResets.Add(1)
	}
	r.lastSent = codec.Ref{}
	if r.codecOn {
		if !wireSupported(h.Codecs, codec.WireV1) {
			r.conn.Close()
			return fmt.Errorf("party %s no longer advertises wire v1", r.name)
		}
		if _, err := r.callOnce(negotiateRequest(r.opts.Codec)); err != nil {
			r.conn.Close()
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

// callOnce performs one request/response exchange, applying the configured
// per-request deadlines and recording latency and payload sizes per op. A
// deadline expiry surfaces as an error naming the party (via the "to/from
// %s" wrapping) that satisfies net.Error with Timeout() == true.
func (r *remoteClient) callOnce(req rpcRequest) (rpcResponse, error) {
	// StartSpan is inert when telemetry is off, so start unconditionally and
	// retire the span on every exit: End on success, Cancel on failure — a
	// failed exchange is not a latency observation.
	sp := telemetry.StartSpan(r.rec, "rpc/coord/latency_seconds/"+opMetricSuffix(req.Op)) //fedomdvet:ignore per-op series over the closed opMetricSuffix set; base key and suffixes are constants
	var tx0, rx0 int64
	if r.rec.Enabled() {
		tx0, rx0 = r.conn.tx.Load(), r.conn.rx.Load()
	}
	// The rpc span parents at the tracer's active context (the current round
	// span) and its identity rides in the request frame, so the party's
	// handling span becomes its child across the process boundary.
	osp := r.tracer.Start(r.tracer.Active(), obs.SpanRPC)
	osp.SetAttr(obs.AttrOp, opMetricSuffix(req.Op))
	osp.SetAttr(obs.AttrParty, r.name)
	defer osp.End()
	if ctx := osp.Context(); ctx.Valid() {
		req.TraceID, req.SpanID = uint64(ctx.Trace), uint64(ctx.Span)
	}
	if r.opts.WriteTimeout > 0 {
		_ = r.conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	}
	if err := r.enc.Encode(req); err != nil {
		sp.Cancel()
		return rpcResponse{}, fmt.Errorf("fed: rpc %s to %s: %w", req.Op, r.name, err)
	}
	if r.opts.ReadTimeout > 0 {
		_ = r.conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
	}
	var resp rpcResponse
	if err := r.dec.Decode(&resp); err != nil {
		sp.Cancel()
		return rpcResponse{}, fmt.Errorf("fed: rpc %s reply from %s: %w", req.Op, r.name, err)
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

func (r *remoteClient) Params() *nn.Params {
	resp, err := r.call(rpcRequest{Op: opGetParams})
	if err != nil {
		// Params() cannot report errors; an empty set will fail loudly in
		// aggregation with a shape mismatch.
		return nn.NewParams()
	}
	if resp.Blob != nil {
		p, derr := codec.DecodeParamsTraced(resp.Blob, r.lastSent, r.tracer, r.tracer.Active())
		if derr != nil {
			if r.lastSent.Params() != nil {
				wireResets.Add(1)
			}
			r.lastSent = codec.Ref{} // desync: force an absolute re-broadcast
			return nn.NewParams()
		}
		if r.rec.Enabled() {
			r.rec.Count(codec.MetricBytesRaw, int64(p.Bytes()))
			r.rec.Count(codec.MetricBytesEncoded, int64(len(resp.Blob)))
		}
		return p
	}
	return paramsFromWire(resp.Params)
}

func (r *remoteClient) SetParams(global *nn.Params) error {
	if !r.codecOn {
		_, err := r.call(rpcRequest{Op: opSetParams, Params: paramsToWire(global)})
		return err
	}
	var next codec.Ref
	_, err := r.callBuild(func() (rpcRequest, error) {
		blob, ref, _, eerr := r.memo.encode(global, r.lastSent)
		if eerr != nil {
			return rpcRequest{}, fmt.Errorf("fed: codec encode for %s: %w", r.name, eerr)
		}
		next = ref
		if r.rec.Enabled() {
			r.rec.Count(codec.MetricBytesRawDown, int64(global.Bytes()))
			r.rec.Count(codec.MetricBytesEncodedDown, int64(len(blob)))
		}
		return rpcRequest{Op: opSetParams, Blob: blob}, nil
	})
	if err != nil {
		// The party may or may not have applied the blob; assume nothing
		// and resynchronise with an absolute broadcast next time.
		if r.lastSent.Params() != nil {
			wireResets.Add(1)
		}
		r.lastSent = codec.Ref{}
		return err
	}
	r.lastSent = next
	return nil
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
	_, _ = r.call(rpcRequest{Op: opShutdown})
	_ = r.conn.Close()
}

// remoteMomentClient adds the MomentClient surface.
type remoteMomentClient struct{ remoteClient }

func (r *remoteMomentClient) LocalMeans() ([]*mat.Dense, int, error) {
	resp, err := r.call(rpcRequest{Op: opLocalMeans})
	if err != nil {
		return nil, 0, err
	}
	return vecsFromWire(resp.Means), resp.N, nil
}

func (r *remoteMomentClient) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
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

func (r *remoteMomentClient) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	wire := make([][]wireDense, len(central))
	for l, layer := range central {
		wire[l] = vecsToWire(layer)
	}
	_, _ = r.call(rpcRequest{Op: opSetGlobalStats, Means: vecsToWire(means), Central: wire})
}

// remoteAuxClient adds the AuxClient surface.
type remoteAuxClient struct{ remoteClient }

func (r *remoteAuxClient) UploadAux() *nn.Params {
	resp, err := r.call(rpcRequest{Op: opUploadAux})
	if err != nil {
		return nil
	}
	return paramsFromWire(resp.Params)
}

func (r *remoteAuxClient) DownloadAux(global *nn.Params) error {
	_, err := r.call(rpcRequest{Op: opDownloadAux, Params: paramsToWire(global)})
	return err
}

// AcceptClientsOpts waits for n parties to connect and complete their
// handshake, returning proxy Clients in connection order. The proxies apply
// the per-request deadlines of opts and record RPC telemetry.
func AcceptClientsOpts(ln net.Listener, n int, opts TransportOptions) ([]Client, error) {
	clients := make([]Client, 0, n)
	var memo *broadcastMemo
	if opts.Codec.Enabled() {
		memo = newBroadcastMemo()
		memo.enc.SetTrace(opts.Tracer, opts.Tracer.Active)
	}
	for len(clients) < n {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("fed: accept: %w", err)
		}
		cc := &countingConn{Conn: conn}
		enc := gob.NewEncoder(cc)
		dec := gob.NewDecoder(cc)
		var h hello
		if err := dec.Decode(&h); err != nil {
			conn.Close()
			return nil, fmt.Errorf("fed: handshake: %w", err)
		}
		base := remoteClient{name: h.Name, samples: h.NumSamples, enc: enc, dec: dec,
			conn: cc, rec: telemetry.Or(opts.Recorder), tracer: opts.Tracer, opts: opts}
		if opts.Codec.Enabled() && wireSupported(h.Codecs, codec.WireV1) {
			if _, err := base.callOnce(negotiateRequest(opts.Codec)); err != nil {
				var ae appError
				if !errors.As(err, &ae) {
					conn.Close()
					return nil, fmt.Errorf("fed: codec negotiation with %s: %w", h.Name, err)
				}
				// The party understood the request and refused the codec
				// (e.g. an options set its build rejects): stay on v0 raw.
			} else {
				base.codecOn = true
				base.memo = memo
			}
		}
		switch {
		case h.Moment:
			clients = append(clients, &remoteMomentClient{base})
		case h.Aux:
			clients = append(clients, &remoteAuxClient{base})
		default:
			rc := base
			clients = append(clients, &rc)
		}
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
		// A codec chosen on the run config applies to the transport: the
		// negotiated wire layer subsumes the in-process simulation (Run
		// skips proxies that report wireCodecNegotiated).
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
			switch rc := c.(type) {
			case *remoteClient:
				rc.shutdown()
			case *remoteMomentClient:
				rc.shutdown()
			case *remoteAuxClient:
				rc.shutdown()
			}
		}
	}()
	return Run(cfg, clients)
}

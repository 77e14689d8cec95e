package fed

import (
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/telemetry"
)

// newWideFakeClient is a fakeClient whose parameter tensor is wide enough
// for codec framing overhead to amortize (1×n instead of 1×1).
func newWideFakeClient(name string, samples int, initVal float64, n int) *fakeClient {
	f := newFakeClient(name, samples, initVal)
	p := nn.NewParams()
	m := mat.New(1, n)
	for j := 0; j < n; j++ {
		m.Set(0, j, initVal+float64(j)/float64(n))
	}
	p.Add("w", m)
	f.params = p
	return f
}

// The lossless Delta tier must not change the computation at all: same
// history (except byte columns), bit-identical final parameters — while
// moving fewer bytes.
func TestCodecRunDeltaParity(t *testing.T) {
	mk := func() []Client {
		a := newWideFakeClient("a", 3, 0, 64)
		a.trainVal = 1
		b := newWideFakeClient("b", 1, 0, 64)
		b.trainVal = 5
		return []Client{a, b}
	}
	raw, err := Run(Config{Rounds: 4}, mk())
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Run(Config{Rounds: 4, Codec: codec.Options{Kind: codec.Delta}}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.History) != len(delta.History) {
		t.Fatalf("history length %d vs %d", len(raw.History), len(delta.History))
	}
	for i := range raw.History {
		r, d := raw.History[i], delta.History[i]
		r.BytesUp, r.BytesDown, d.BytesUp, d.BytesDown = 0, 0, 0, 0
		r.Start, r.End, d.Start, d.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if r != d {
			t.Fatalf("round %d stats diverged: %+v vs %+v", i, r, d)
		}
	}
	if !raw.FinalParams.Get("w").Equal(delta.FinalParams.Get("w")) {
		t.Fatal("delta codec changed the final parameters")
	}
	if raw.BestValAcc != delta.BestValAcc || raw.TestAtBestVal != delta.TestAtBestVal {
		t.Fatal("delta codec changed the accuracy outcome")
	}
	if delta.TotalBytesUp >= raw.TotalBytesUp || delta.TotalBytesDown >= raw.TotalBytesDown {
		t.Fatalf("delta codec did not shrink traffic: up %d vs %d, down %d vs %d",
			delta.TotalBytesUp, raw.TotalBytesUp, delta.TotalBytesDown, raw.TotalBytesDown)
	}
}

// The codec byte counters must reconcile with the run's own accounting:
// encoded < raw, and the history's byte columns carry the encoded sizes.
func TestCodecRunCounters(t *testing.T) {
	agg := telemetry.NewAggregator()
	clients := []Client{
		newWideFakeClient("a", 2, 0, 256),
		newWideFakeClient("b", 1, 1, 256),
	}
	res, err := Run(Config{Rounds: 3, Recorder: agg,
		Codec: codec.Options{Kind: codec.Quant, Bits: 8}}, clients)
	if err != nil {
		t.Fatal(err)
	}
	rawB, encB := agg.Counter(codec.MetricBytesRaw), agg.Counter(codec.MetricBytesEncoded)
	if rawB == 0 || encB == 0 {
		t.Fatalf("codec byte counters missing: raw=%d encoded=%d", rawB, encB)
	}
	if encB >= rawB {
		t.Fatalf("8-bit quantization did not compress uploads: %d encoded vs %d raw", encB, rawB)
	}
	if agg.Counter(codec.MetricBytesRawDown) == 0 || agg.Counter(codec.MetricBytesEncodedDown) == 0 {
		t.Fatal("downlink byte counters missing")
	}
	if agg.Counter(codec.MetricEncodeNs) == 0 || agg.Counter(codec.MetricDecodeNs) == 0 {
		t.Fatal("codec timing counters missing")
	}
	// The history's byte columns carry the encoded sizes, so the uplink total
	// must reconcile exactly with the uplink counter.
	if res.TotalBytesUp != encB {
		t.Fatalf("history BytesUp %d != encoded upload counter %d", res.TotalBytesUp, encB)
	}
	if res.TotalBytesDown != agg.Counter(codec.MetricBytesEncodedDown) {
		t.Fatalf("history BytesDown %d != encoded downlink counter %d",
			res.TotalBytesDown, agg.Counter(codec.MetricBytesEncodedDown))
	}
}

// A NaN-poisoned upload must still reach the server's non-finite screen
// through a lossy codec (the encoder escapes non-finite tensors to absolute
// frames rather than quantizing them away or poisoning its residual).
func TestCodecNaNUploadStillDropped(t *testing.T) {
	a := newWideFakeClient("a", 1, 0, 32)
	a.trainVal = 1
	b := newWideFakeClient("b", 1, 0, 32)
	b.trainVal = math.NaN()
	res, err := Run(Config{Rounds: 2, Policy: DropRound,
		Codec: codec.Options{Kind: codec.Quant, Bits: 8}}, []Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientFailures["b"] == 0 {
		t.Fatal("NaN upload was not attributed to the poisoned client")
	}
	if v := res.FinalParams.Get("w").At(0, 0); math.IsNaN(v) {
		t.Fatal("NaN leaked into the aggregate")
	}
}

// Distributed run with a negotiated delta codec: bit-identical outcome to
// the raw-transport run, with measurably fewer bytes on the sockets.
func TestDistributedCodecDeltaParity(t *testing.T) {
	mk := func() []Client {
		a := newWideFakeClient("a", 3, 0, 128)
		a.trainVal = 1
		b := newWideFakeClient("b", 1, 0, 128)
		b.trainVal = 5
		return []Client{a, b}
	}
	rawAgg := telemetry.NewAggregator()
	raw, err := startServer(t, Config{Rounds: 3, Sequential: true, Recorder: rawAgg}, mk())
	if err != nil {
		t.Fatal(err)
	}
	codAgg := telemetry.NewAggregator()
	cod, err := startServer(t, Config{Rounds: 3, Sequential: true, Recorder: codAgg,
		Codec: codec.Options{Kind: codec.Delta}}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !raw.FinalParams.Get("w").Equal(cod.FinalParams.Get("w")) {
		t.Fatal("negotiated delta codec changed the distributed aggregate")
	}
	if raw.History[2].TestAcc != cod.History[2].TestAcc {
		t.Fatal("negotiated delta codec changed the accuracy trajectory")
	}
	if codAgg.Counter(codec.MetricBytesEncoded) == 0 {
		t.Fatal("transport codec counters missing: negotiation did not happen")
	}
	// The payload ops must be lighter on the wire than the raw run's.
	for _, key := range []string{"rpc/coord/bytes_tx/set_params", "rpc/coord/bytes_rx/get_params"} {
		if c, r := codAgg.Counter(key), rawAgg.Counter(key); c >= r {
			t.Errorf("%s: codec run moved %d bytes, raw run %d", key, c, r)
		}
	}
}

// Distributed run with 8-bit quantization: completes, and the aggregate
// lands within the quantization step of the raw run (single tensor, so the
// bound is loose but meaningful for these fakes).
func TestDistributedCodecQuant(t *testing.T) {
	mk := func() []Client {
		a := newWideFakeClient("a", 1, 0, 64)
		a.trainVal = 1
		b := newWideFakeClient("b", 1, 0, 64)
		b.trainVal = 2
		return []Client{a, b}
	}
	raw, err := startServer(t, Config{Rounds: 3, Sequential: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	q, err := startServer(t, Config{Rounds: 3, Sequential: true,
		Codec: codec.Options{Kind: codec.Quant, Bits: 8}}, mk())
	if err != nil {
		t.Fatal(err)
	}
	rw, qw := raw.FinalParams.Get("w"), q.FinalParams.Get("w")
	for j := 0; j < rw.Cols(); j++ {
		if d := math.Abs(rw.At(0, j) - qw.At(0, j)); d > 0.05 {
			t.Fatalf("quantized distributed aggregate drifted %g at [%d]", d, j)
		}
	}
}

// oldServeClient is an older binary in effigy: it speaks the raw-gob wire
// format — requests without Blob — and advertises the wire versions in
// codecs: nil for a v0 binary, whose hello has no Codecs field at all, or [1]
// for a v1 binary, whose blobs carry a checksum this build no longer writes.
// Either way the negotiation must leave it on raw gob: it ends the run on a
// request it does not know, NegotiateCodec included.
func oldServeClient(conn net.Conn, c Client, codecs []uint8) error {
	type oldHello struct {
		Name       string
		NumSamples int
		Moment     bool
		Aux        bool
	}
	type v1Hello struct {
		Name       string
		NumSamples int
		Moment     bool
		Aux        bool
		Codecs     []uint8
	}
	type oldRequest struct {
		Op     string
		Round  int
		Params *wireParams
	}
	type oldResponse struct {
		Err            string
		Loss           float64
		Correct, Total int
		Params         *wireParams
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	var h any = oldHello{Name: c.Name(), NumSamples: c.NumSamples()}
	if codecs != nil {
		h = v1Hello{Name: c.Name(), NumSamples: c.NumSamples(), Codecs: codecs}
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for {
		var req oldRequest
		if err := dec.Decode(&req); err != nil {
			return err
		}
		var resp oldResponse
		switch req.Op {
		case opShutdown:
			return enc.Encode(oldResponse{})
		case opSetParams:
			if err := c.SetParams(paramsFromWire(req.Params)); err != nil {
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
			resp.Params = paramsToWire(c.Params())
		default:
			return fmt.Errorf("old peer: unknown op %q", req.Op)
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}

// runMixedFleet runs a current party and an old one (see oldServeClient)
// under cfg over loopback and fails the test on any serve error.
func runMixedFleet(t *testing.T, cfg Config, oldCodecs []uint8) *Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a := newWideFakeClient("a", 3, 0, 32)
	a.trainVal = 1
	b := newWideFakeClient("b", 1, 0, 32)
	b.trainVal = 5
	newErr := make(chan error, 1)
	oldErr := make(chan error, 1)
	go func() { newErr <- ServeClient(ln.Addr().String(), a) }()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			oldErr <- err
			return
		}
		defer conn.Close()
		oldErr <- oldServeClient(conn, b, oldCodecs)
	}()
	res, err := RunDistributed(cfg, ln, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-newErr; err != nil {
		t.Fatalf("current party serve error: %v", err)
	}
	if err := <-oldErr; err != nil {
		t.Fatalf("old party serve error: %v", err)
	}
	return res
}

// A mixed fleet — one current party, one v0 peer — must complete a
// codec-enabled run: the new connection negotiates, the old one gracefully
// stays raw, and the result matches the all-raw run exactly (Delta tier).
func TestDistributedCodecOldPeerFallback(t *testing.T) {
	raw := runMixedFleet(t, Config{Rounds: 3, Sequential: true}, nil)
	mixed := runMixedFleet(t, Config{Rounds: 3, Sequential: true, Codec: codec.Options{Kind: codec.Delta}}, nil)
	if !raw.FinalParams.Get("w").Equal(mixed.FinalParams.Get("w")) {
		t.Fatal("mixed-fleet codec run diverged from the raw run")
	}
}

// A party whose hello advertises only wire v1 is left on raw gob too (it
// would reject every v2 broadcast), while the current party negotiates; the
// run completes and matches the all-raw run exactly (Delta tier).
func TestDistributedCodecV1PeerFallback(t *testing.T) {
	raw := runMixedFleet(t, Config{Rounds: 3, Sequential: true}, []uint8{1})
	agg := telemetry.NewAggregator()
	mixed := runMixedFleet(t, Config{Rounds: 3, Sequential: true, Recorder: agg,
		Codec: codec.Options{Kind: codec.Delta}}, []uint8{1})
	if !raw.FinalParams.Get("w").Equal(mixed.FinalParams.Get("w")) {
		t.Fatal("mixed-fleet codec run diverged from the raw run")
	}
	if agg.Counter(codec.MetricBytesEncoded) == 0 {
		t.Fatal("the current party did not negotiate the codec")
	}
}

// The party encodes each GetParams blob into one buffer per connection.
// With the replies decoded into one reused response, a q8 get_params costs
// the whole process about one blob (gob's read of the message); a party
// encoding into a fresh buffer each time adds more than another blob.
func TestGetParamsReusesUplinkBuffer(t *testing.T) {
	const n = 1 << 15
	party, coord := net.Pipe()
	defer coord.Close()
	c := newWideFakeClient("a", 1, 0, n)
	served := make(chan error, 1)
	go func() { served <- ServeClientConnOpts(party, c, ServeOptions{}) }()
	enc, dec := gob.NewEncoder(coord), gob.NewDecoder(coord)
	var h hello
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	var resp rpcResponse
	call := func(req rpcRequest) {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
	}
	call(negotiateRequest(codec.Options{Kind: codec.Quant, Bits: 8}))
	blob, err := codec.NewEncoder(codec.Options{Kind: codec.Delta}).EncodeParams(nil, c.Params().Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	call(rpcRequest{Op: opSetParams, Blob: blob})
	for i := 0; i < 3; i++ {
		call(rpcRequest{Op: opGetParams})
	}
	blobLen := uint64(len(resp.Blob))
	const ops = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		call(rpcRequest{Op: opGetParams})
	}
	runtime.ReadMemStats(&after)
	call(rpcRequest{Op: opShutdown})
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	if blobLen < n || perOp > 2*blobLen {
		t.Fatalf("get_params allocated %d bytes per request for a %d-byte blob; want under two blobs", perOp, blobLen)
	}
	t.Logf("get_params allocated %d bytes per request for a %d-byte blob", perOp, blobLen)
}

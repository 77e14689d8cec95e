package fed

import (
	"bytes"
	"encoding/gob"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// startServer runs RunDistributed over a loopback listener and serves the
// given clients from goroutines.
func startServer(t *testing.T, cfg Config, locals []Client) (*Result, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	serveErrs := make([]error, len(locals))
	for i, c := range locals {
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			serveErrs[i] = ServeClient(ln.Addr().String(), c)
		}(i, c)
	}
	res, err := RunDistributed(cfg, ln, len(locals))
	wg.Wait()
	for i, se := range serveErrs {
		if se != nil {
			t.Errorf("party %d serve error: %v", i, se)
		}
	}
	return res, err
}

func TestDistributedMatchesInProcess(t *testing.T) {
	mk := func() []Client {
		a := newFakeClient("a", 3, 0)
		a.trainVal = 1
		b := newFakeClient("b", 1, 0)
		b.trainVal = 5
		return []Client{a, b}
	}
	local, err := Run(Config{Rounds: 3, Sequential: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := startServer(t, Config{Rounds: 3, Sequential: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dist.FinalParams.Get("w").At(0, 0), local.FinalParams.Get("w").At(0, 0); got != want {
		t.Fatalf("distributed aggregate %v, in-process %v", got, want)
	}
	if dist.History[2].TestAcc != local.History[2].TestAcc {
		t.Fatal("distributed accuracy trajectory diverged")
	}
}

func TestDistributedMomentExchange(t *testing.T) {
	d1, _ := mat.NewFromRows([][]float64{{0}, {2}})
	d2, _ := mat.NewFromRows([][]float64{{10}, {12}, {14}, {16}})
	a := &momentFake{fakeClient: newFakeClient("a", 2, 0), data: d1}
	b := &momentFake{fakeClient: newFakeClient("b", 4, 0), data: d2}
	if _, err := startServer(t, Config{Rounds: 1}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	// Global stats must have crossed the wire and match the pooled
	// reference.
	pooled, _ := mat.NewFromRows([][]float64{{0}, {2}, {10}, {12}, {14}, {16}})
	wantMean := mat.MeanRows(pooled)
	wantCentral := moments.CentralAround(pooled, wantMean, 5)
	if a.gotMeans == nil || !a.gotMeans[0].EqualApprox(wantMean, 1e-12) {
		t.Fatalf("global mean over the wire = %v want %v", a.gotMeans, wantMean)
	}
	for k := range wantCentral {
		if !b.gotCentral[0][k].EqualApprox(wantCentral[k], 1e-9) {
			t.Fatalf("order-%d moment mismatch over the wire", k+2)
		}
	}
}

func TestDistributedAuxExchange(t *testing.T) {
	a := &auxFake{fakeClient: newFakeClient("a", 1, 0), auxVal: 2}
	b := &auxFake{fakeClient: newFakeClient("b", 1, 0), auxVal: 6}
	if _, err := startServer(t, Config{Rounds: 1}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.downloaded != 4 || b.downloaded != 4 {
		t.Fatalf("aux aggregate over the wire = %v/%v want 4", a.downloaded, b.downloaded)
	}
}

func TestDistributedPropagatesClientError(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	a.trainErr = errTest
	_, err := startServer(t, Config{Rounds: 1}, []Client{a})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("training error not propagated: %v", err)
	}
}

var errTest = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestWireRoundTrips(t *testing.T) {
	m, _ := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
	if !fromWire(toWire(m)).Equal(m) {
		t.Fatal("dense wire round trip failed")
	}
	if fromWire(toWire(nil)).Rows() != 0 {
		t.Fatal("nil dense round trip failed")
	}
	p := nn.NewParams()
	p.Add("w0", m)
	p.Add("b0", mat.New(1, 2))
	q := paramsFromWire(paramsToWire(p))
	if q.Len() != 2 || !q.Get("w0").Equal(m) {
		t.Fatal("params wire round trip failed")
	}
	if paramsFromWire(nil) != nil {
		t.Fatal("nil params round trip failed")
	}
}

func TestRunDistributedValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := RunDistributed(Config{Rounds: 1}, ln, 0); err == nil {
		t.Fatal("0 parties accepted")
	}
}

// sameRun fails unless two runs agree on every history row (wall-clock
// bounds aside), the final parameters bit for bit and both byte totals.
func sameRun(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.History) != len(got.History) {
		t.Fatalf("%d history rows, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		w, g := want.History[i], got.History[i]
		w.Start, w.End, g.Start, g.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if w != g {
			t.Fatalf("round %d: got %+v, want %+v", i, g, w)
		}
	}
	for _, name := range want.FinalParams.Names() {
		if g := got.FinalParams.Get(name); g == nil || !g.Equal(want.FinalParams.Get(name)) {
			t.Fatalf("final parameter %s differs", name)
		}
	}
	if got.TotalBytesUp != want.TotalBytesUp || got.TotalBytesDown != want.TotalBytesDown {
		t.Fatalf("bytes up %d down %d, want up %d down %d",
			got.TotalBytesUp, got.TotalBytesDown, want.TotalBytesUp, want.TotalBytesDown)
	}
}

// One codec path: an in-process run and a loopback TCP run of the same
// fleet under the same tier move the same blobs, so they agree on every
// history row, the final parameters and the bytes booked.
func TestInProcessMatchesTCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    codec.Options
	}{
		{"delta", codec.Options{Kind: codec.Delta}},
		{"q8", codec.Options{Kind: codec.Quant, Bits: 8}},
		{"q8-top0.1", codec.Options{Kind: codec.Quant, Bits: 8, TopK: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() []Client {
				a := newWideFakeClient("a", 3, 0, 64)
				a.trainVal = 1
				b := newWideFakeClient("b", 1, 0, 64)
				b.trainVal = 5
				return []Client{a, b}
			}
			cfg := Config{Rounds: 4, Sequential: true, Codec: tc.o}
			local, err := Run(cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			tcp, err := startServer(t, cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, local, tcp)
		})
	}
}

// An async run under a codec books every blob its links move. With the
// whole fleet drained each round (BufferK = M, instant parties) it follows
// the sync run's globals, and the scoring install that carries each round's
// delta is booked on top of the dispatch after it: no round books less
// downlink than the sync run, the history matches the downlink counter, and
// a loopback TCP run books the same.
func TestAsyncCodecBooksEachDelta(t *testing.T) {
	mk := func() []Client {
		a := newWideFakeClient("a", 3, 0, 64)
		a.trainVal = 1
		b := newWideFakeClient("b", 1, 0, 64)
		b.trainVal = 5
		return []Client{a, b}
	}
	q8 := codec.Options{Kind: codec.Quant, Bits: 8}
	sync, err := Run(Config{Rounds: 4, Sequential: true, Codec: q8}, mk())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rounds: 4, Sequential: true, Codec: q8, Aggregation: AggAsync, BufferK: 2}
	agg := telemetry.NewAggregator()
	traced := cfg
	traced.Recorder = agg
	async, err := Run(traced, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !async.FinalParams.Get("w").Equal(sync.FinalParams.Get("w")) {
		t.Fatal("async K=M left the sync trajectory")
	}
	for r, s := range sync.History {
		if a := async.History[r].BytesDown; a < s.BytesDown {
			t.Fatalf("round %d: async booked %d B down, under the sync run's %d B of deltas", r, a, s.BytesDown)
		}
	}
	if enc := agg.Counter(codec.MetricBytesEncodedDown); async.TotalBytesDown != enc {
		t.Fatalf("history BytesDown %d != encoded downlink counter %d", async.TotalBytesDown, enc)
	}
	tcp, err := startServer(t, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, async, tcp)
}

// A party that is both a MomentClient and an AuxClient keeps both surfaces
// over TCP: the run equals the in-process one, aux traffic included.
func TestDistributedMomentAuxParty(t *testing.T) {
	mk := func() []Client { return []Client{newFaultySite("a", "", 1), newFaultySite("b", "", 2)} }
	cfg := Config{Rounds: 3, Sequential: true}
	local, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := startServer(t, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, local, tcp)
}

// acceptHook signals every connection its listener accepts.
type acceptHook struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptHook) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// A handshake failure on a later connection closes the parties accepted
// before it, so their serve loops return instead of waiting forever on a
// coordinator that is gone.
func TestAcceptClientsClosesAcceptedOnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hook := acceptHook{Listener: ln, accepted: make(chan struct{}, 2)}
	served := make(chan error, 1)
	go func() { served <- ServeClient(ln.Addr().String(), newFakeClient("a", 1, 0)) }()
	go func() {
		<-hook.accepted // party a is in; the next peer hangs up before its hello
		if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			conn.Close()
		}
	}()
	if _, err := AcceptClientsOpts(hook, 2, TransportOptions{}); err == nil {
		t.Fatal("accepted a peer that sent no hello")
	}
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("party a is still blocked in ServeClient after the coordinator failed")
	}
}

// teeConn keeps a copy of what the coordinator reads from and writes to a
// party connection.
type teeConn struct {
	net.Conn
	rx, tx bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Write(p[:n])
	return n, err
}

func (c *teeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Write(p[:n])
	return n, err
}

type teeListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*teeConn
}

func (l *teeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &teeConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// uploadLog records a copy of every parameter set its party uploads.
type uploadLog struct {
	*slowTrainer
	uploads []*nn.Params
}

func (u *uploadLog) Params() *nn.Params {
	p := u.slowTrainer.Params()
	u.uploads = append(u.uploads, p.Clone())
	return p
}

// An evicted async update resets the party's uplink residuals over TCP too:
// the coordinator forgets its reference, its next broadcast to the party is
// absolute, and the party's next uplink frame is exactly a fresh encoder's.
// The test replays each connection's gob stream to find the frames. Every
// round waits at least the fast party's 1 ms, so 200 rounds outlast the
// slow party's 50 ms job at least four times over: the run must see one of
// its updates arrive stale and the next one uploaded after the re-sync,
// however fast the coordinator's own phases are.
func TestDistributedEvictionResetsUplink(t *testing.T) {
	q8 := codec.Options{Kind: codec.Quant, Bits: 8}
	parties := map[string]*uploadLog{}
	var locals []Client
	for i, d := range []time.Duration{time.Millisecond, 50 * time.Millisecond} {
		f := newWideFakeClient(string(rune('a'+i)), 1, float64(i), 64)
		f.trainVal = 0.3 + float64(i)
		u := &uploadLog{slowTrainer: &slowTrainer{fakeClient: f, delay: d}}
		parties[f.name] = u
		locals = append(locals, u)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tee := &teeListener{Listener: ln}
	var wg sync.WaitGroup
	for _, c := range locals {
		wg.Add(1)
		go func(c Client) {
			defer wg.Done()
			if err := ServeClient(ln.Addr().String(), c); err != nil {
				t.Errorf("party %s: %v", c.Name(), err)
			}
		}(c)
	}
	agg := telemetry.NewAggregator()
	_, err = RunDistributed(Config{Rounds: 200, Aggregation: AggAsync, BufferK: 1, MaxStaleness: 1,
		Policy: DropRound, QuorumPolicy: QuorumSkip, Recorder: agg, Codec: q8}, tee, len(locals))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Counter(MetricAsyncEvicted) == 0 {
		t.Fatal("no update was evicted")
	}
	checked := 0
	for _, tc := range tee.conns {
		rx := gob.NewDecoder(bytes.NewReader(tc.rx.Bytes()))
		tx := gob.NewDecoder(bytes.NewReader(tc.tx.Bytes()))
		var h hello
		if err := rx.Decode(&h); err != nil {
			t.Fatal(err)
		}
		party := parties[h.Name]
		var ref codec.Ref
		sets, gets, resynced := 0, 0, false
		for {
			var req rpcRequest
			var resp rpcResponse
			if tx.Decode(&req) != nil || rx.Decode(&resp) != nil {
				break
			}
			switch req.Op {
			case opSetParams:
				sets++
				g, absolute, err := codec.DecodeParamsTraced(req.Blob, ref, nil, obs.SpanContext{})
				if err != nil {
					t.Fatal(err)
				}
				resynced = resynced || (sets > 1 && absolute)
				ref = codec.NewRef(g)
			case opGetParams:
				p := party.uploads[gets]
				gets++
				if !resynced {
					continue
				}
				fresh, err := codec.NewEncoder(q8).EncodeRef(nil, p, ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resp.Blob, fresh) {
					t.Fatalf("party %s: first uplink frame after the re-sync differs from a fresh encoder's", h.Name)
				}
				checked++
				resynced = false
			}
		}
	}
	if checked == 0 {
		t.Fatal("no absolute re-broadcast followed by an upload: the eviction left the reference chain in place")
	}
}

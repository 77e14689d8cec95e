package fed

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// slowClient hangs in TrainLocal, from round late on, long enough to trip
// the coordinator's per-request read deadline.
type slowClient struct {
	*fakeClient
	delay time.Duration
	late  int
}

func (s *slowClient) TrainLocal(round int) (float64, error) {
	if round >= s.late {
		time.Sleep(s.delay)
	}
	return s.fakeClient.TrainLocal(round)
}

// TestReadDeadlineSurfacesNamedClientError covers the satellite fix for hung
// parties: without deadlines a stalled party blocks the synchronous round
// forever; with TransportOptions.ReadTimeout the coordinator fails fast with
// an error naming the offending client.
func TestReadDeadlineSurfacesNamedClientError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The serve loop exits with a write error once the coordinator
		// abandons the connection; that is expected here.
		_ = ServeClient(ln.Addr().String(), &slowClient{
			fakeClient: newFakeClient("laggard", 1, 0),
			delay:      2 * time.Second,
		})
	}()

	clients, err := AcceptClientsOpts(ln, 1, TransportOptions{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = Run(Config{Rounds: 1}, clients)
	// The timeout retired the link, so shutdown only closes it: the party's
	// serve loop ends with an error once its slow TrainLocal returns.
	clients[0].(*remoteClient).shutdown()
	if err == nil {
		t.Fatal("hung party did not surface an error")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline did not fire promptly, run took %v", time.Since(start))
	}
	if !strings.Contains(err.Error(), "laggard") {
		t.Fatalf("error does not name the hung client: %v", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("deadline expiry is not a net timeout error: %v", err)
	}
	wg.Wait()
}

// TestDeadlinesHarmlessOnHealthyRun checks generous deadlines leave a normal
// distributed run untouched and that transport telemetry lands on both ends.
func TestDeadlinesHarmlessOnHealthyRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	coordRec := telemetry.NewAggregator()
	partyRec := telemetry.NewAggregator()
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := ServeClientConnOpts(conn, newFakeClient(name, 1, 0), ServeOptions{
				Recorder:     partyRec,
				WriteTimeout: 5 * time.Second,
			}); err != nil {
				t.Errorf("party %s: %v", name, err)
			}
		}(name)
	}
	res, err := RunDistributedOpts(Config{Rounds: 2}, ln, 2, TransportOptions{
		Recorder:     coordRec,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("run truncated: %d rounds", len(res.History))
	}
	// Each round calls TrainLocal once per party: latency histogram on the
	// coordinator, handle histogram on the party, bytes counters on both.
	if s, ok := coordRec.Histogram("rpc/coord/latency_seconds/train_local"); !ok || s.Count != 4 {
		t.Fatalf("coordinator TrainLocal latency samples = %d (present=%v) want 4", s.Count, ok)
	}
	if s, ok := partyRec.Histogram("rpc/party/handle_seconds/train_local"); !ok || s.Count != 4 {
		t.Fatalf("party TrainLocal handle samples = %d (present=%v) want 4", s.Count, ok)
	}
	if coordRec.Counter("rpc/coord/bytes_tx/set_params") == 0 ||
		coordRec.Counter("rpc/coord/bytes_rx/get_params") == 0 {
		t.Fatal("coordinator byte counters missing")
	}
	if partyRec.Counter("rpc/party/bytes_rx/set_params") == 0 ||
		partyRec.Counter("rpc/party/bytes_tx/get_params") == 0 {
		t.Fatal("party byte counters missing")
	}
}

// TestTimedOutRPCIsNoLatencySample times out the second of a party's two
// train_local calls under ReadTimeout: the per-op latency histogram counts
// only the call that completed, and the timed-out call's RPC span says why
// it ended.
func TestTimedOutRPCIsNoLatencySample(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The serve loop ends with a write error once the coordinator
		// abandons the connection; that is expected here.
		_ = ServeClient(ln.Addr().String(), &slowClient{
			fakeClient: newFakeClient("laggard", 1, 0),
			delay:      600 * time.Millisecond,
			late:       1,
		})
	}()

	var mu sync.Mutex
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(lockedWriter{&mu, &buf})
	tr := obs.NewTracer(jl)
	rec := telemetry.NewAggregator()
	clients, err := AcceptClientsOpts(ln, 1, TransportOptions{
		Recorder:    rec,
		Tracer:      tr,
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Rounds: 2, Tracer: tr}, clients)
	clients[0].(*remoteClient).shutdown()
	wg.Wait()
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("round 1 did not end on the read deadline: %v", err)
	}

	if s, _ := rec.Histogram("rpc/coord/latency_seconds/train_local"); s.Count != 1 {
		t.Fatalf("train_local latency samples = %d, want the 1 call that completed", s.Count)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	recs := decodeTrace(t, bytes.NewBuffer(append([]byte(nil), buf.Bytes()...)))
	mu.Unlock()
	var ok, failed int
	for _, r := range recs {
		if r.Type != "span" || r.Name != obs.SpanRPC || r.Attrs[obs.AttrOp] != "train_local" {
			continue
		}
		msg, hasErr := r.Attrs[obs.AttrErr].(string)
		switch {
		case !hasErr:
			ok++
		case strings.Contains(msg, "laggard"):
			failed++
		default:
			t.Errorf("timed-out span's err %q does not name the party", msg)
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("train_local RPC spans: %d completed and %d carrying err, want 1 and 1", ok, failed)
	}
}

// echoParty answers every request with values that name the party and the
// round, so the coordinator can tell its own reply from a stale one. It
// sleeps through TrainLocal in round slow.
type echoParty struct {
	*fakeClient
	id, slow int
	delay    time.Duration
}

func (e *echoParty) TrainLocal(round int) (float64, error) {
	if round == e.slow {
		time.Sleep(e.delay)
	}
	e.params.Get("w").Set(0, 0, float64(100*e.id+round))
	return float64(1000*e.id + round), nil
}

func (e *echoParty) EvalVal() (int, int)  { return e.id + 1, 10 }
func (e *echoParty) EvalTest() (int, int) { return e.id + 1, 20 }

// echoCheck wraps a coordinator-side proxy and fails the test on any
// answer that is not the one its party gives for the current round. A
// failed call is allowed only where the party was made slow.
type echoCheck struct {
	Client
	t        *testing.T
	id, slow int
	round    int // of the last TrainLocal; −1 before the first
}

func (c *echoCheck) TrainLocal(round int) (float64, error) {
	c.round = round
	loss, err := c.Client.TrainLocal(round)
	switch {
	case err != nil && round != c.slow:
		c.t.Errorf("party %d round %d: TrainLocal failed: %v", c.id, round, err)
	case err == nil && loss != float64(1000*c.id+round):
		c.t.Errorf("party %d round %d: TrainLocal answered %v", c.id, round, loss)
	}
	return loss, err
}

func (c *echoCheck) Params() *nn.Params {
	p := c.Client.Params()
	if p == nil {
		c.t.Errorf("party %d round %d: Params returned nil", c.id, c.round)
		return nn.NewParams()
	}
	want := 0.0 // the initial parameters, before any round trained
	if c.round >= 0 {
		want = float64(100*c.id + c.round)
	}
	if w := p.Get("w"); w == nil || w.At(0, 0) != want {
		c.t.Errorf("party %d round %d: Params answered %v", c.id, c.round, w)
	}
	return p
}

func (c *echoCheck) EvalVal() (int, int) {
	got, total := c.Client.EvalVal()
	if got != c.id+1 || total != 10 {
		c.t.Errorf("party %d round %d: EvalVal answered %d/%d", c.id, c.round, got, total)
	}
	return got, total
}

func (c *echoCheck) EvalTest() (int, int) {
	got, total := c.Client.EvalTest()
	if got != c.id+1 || total != 20 {
		c.t.Errorf("party %d round %d: EvalTest answered %d/%d", c.id, c.round, got, total)
	}
	return got, total
}

// TestTimedOutRPCDoesNotDesyncTheLink: a party that overruns ReadTimeout in
// round 1 still sends its late reply. The coordinator must not read it as
// the answer to its next request. It closes the link on the timeout,
// reconnects when it next needs the party, and from then on every answer is
// that party's own for the round.
func TestTimedOutRPCDoesNotDesyncTheLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const parties, slowID, slowRound = 2, 1, 1
	var wg sync.WaitGroup
	for id := 0; id < parties; id++ {
		slow := -1
		if id == slowID {
			slow = slowRound
		}
		p := &echoParty{fakeClient: newFakeClient(fmt.Sprintf("p%d", id), 1, 0), id: id, slow: slow,
			delay: 300 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The party redials when its link drops, as a supervisor
			// would, until the coordinator shuts it down.
			var last error
			for attempt := 0; attempt < 5; attempt++ {
				if last = ServeClient(ln.Addr().String(), p); last == nil {
					return
				}
			}
			t.Errorf("party %s never reached a clean shutdown: %v", p.name, last)
		}()
	}
	proxies, err := AcceptClientsOpts(ln, parties, TransportOptions{
		ReadTimeout: 100 * time.Millisecond,
		Reconnect:   func(string) (net.Conn, error) { return ln.Accept() },
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, parties)
	for i, c := range proxies {
		id := int(c.Name()[1] - '0')
		slow := -1
		if id == slowID {
			slow = slowRound
		}
		clients[i] = &echoCheck{Client: c, t: t, id: id, slow: slow, round: -1}
	}
	res, err := Run(Config{Rounds: 5, Sequential: true, Policy: DropRound}, clients)
	for _, c := range proxies {
		c.(*remoteClient).shutdown()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 {
		t.Fatalf("completed %d rounds, want 5", len(res.History))
	}
}

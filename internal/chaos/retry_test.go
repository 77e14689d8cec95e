package chaos

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// TestRetryReconnectsThroughFlakyLinks drives a distributed round over links
// that sever on the coordinator's first write for the first two connections.
// With MaxRetries 3 and a Reconnect hook the run must complete, spending
// exactly two retries — one per severed link.
func TestRetryReconnectsThroughFlakyLinks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fln := NewFlakyListener(ln, 2)
	addr := ln.Addr().String()

	// The party redials whenever its connection drops, like a real deployment
	// supervisor would, and exits cleanly on the coordinator's Shutdown.
	partyDone := make(chan error, 1)
	go func() {
		stub := newStub("p0")
		var last error
		for attempt := 0; attempt < 10; attempt++ {
			if last = fed.ServeClient(addr, stub); last == nil {
				break
			}
		}
		partyDone <- last
	}()

	agg := telemetry.NewAggregator()
	res, err := fed.RunDistributedOpts(fed.Config{Rounds: 2, Recorder: agg}, fln, 1, fed.TransportOptions{
		Recorder:     agg,
		MaxRetries:   3,
		RetryBackoff: 5 * time.Millisecond,
		Reconnect:    func(string) (net.Conn, error) { return fln.Accept() },
	})
	if err != nil {
		t.Fatalf("run failed despite retry budget: %v", err)
	}
	if len(res.History) != 2 {
		t.Fatalf("completed %d rounds want 2", len(res.History))
	}
	if got := agg.Counter(fed.MetricRPCRetries); got != 2 {
		t.Fatalf("retries = %d want exactly 2 (one per severed link)", got)
	}
	select {
	case perr := <-partyDone:
		if perr != nil {
			t.Fatalf("party never reached a clean shutdown: %v", perr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("party still running after the coordinator finished")
	}
}

// TestNoRetryWithoutReconnect pins the default behavior: a severed link with
// no Reconnect hook fails the call, and under FailFast the run.
func TestNoRetryWithoutReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fln := NewFlakyListener(ln, 1)
	addr := ln.Addr().String()
	go func() {
		stub := newStub("p0")
		for attempt := 0; attempt < 2; attempt++ {
			if err := fed.ServeClient(addr, stub); err == nil {
				return
			}
		}
	}()
	_, err = fed.RunDistributedOpts(fed.Config{Rounds: 1}, fln, 1, fed.TransportOptions{MaxRetries: 3})
	if err == nil {
		t.Fatal("severed link survived without a Reconnect hook")
	}
}

// driftClient is a party whose parameters move every round by amounts that
// use the whole float64 mantissa, so only a lossless wire carries them
// exactly.
type driftClient struct {
	*stubClient
	step float64
}

func newDrift(name string, step float64) *driftClient {
	s := newStub(name)
	s.params = nn.NewParams()
	s.params.Add("w", mat.New(1, 96))
	return &driftClient{stubClient: s, step: step}
}

func (d *driftClient) TrainLocal(round int) (float64, error) {
	w := d.params.Get("w")
	for j := 0; j < w.Cols(); j++ {
		w.Set(0, j, 0.7*w.At(0, j)+d.step*math.Sin(float64(round*w.Cols()+j)))
	}
	return 0, nil
}

// resetTally sums the per-round codec reference-chain resets.
type resetTally struct{ resets int }

func (r *resetTally) ObserveRound(_ obs.SpanContext, o obs.RoundObservation) {
	r.resets += o.CodecResets
}

// runSevered runs a six-round, two-party distributed run with the given
// codec. With sever set, the first accepted link is cut mid-run and the
// coordinator reconnects through the Reconnect hook while the party redials.
func runSevered(t *testing.T, opts codec.Options, sever bool) (*fed.Result, *telemetry.Aggregator, int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var lis net.Listener = ln
	if sever {
		fln := NewFlakyListener(ln, 1)
		// Past the negotiation and round 0's broadcast, so the party already
		// holds a reference when its link dies.
		fln.WritesBeforeSever = 12
		lis = fln
	}
	parties := []*driftClient{newDrift("p0", 0.3), newDrift("p1", -0.2)}
	var wg sync.WaitGroup
	for _, p := range parties {
		wg.Add(1)
		go func(p *driftClient) {
			defer wg.Done()
			var last error
			for attempt := 0; attempt < 10; attempt++ {
				if last = fed.ServeClient(ln.Addr().String(), p); last == nil {
					return
				}
			}
			t.Errorf("party %s never reached a clean shutdown: %v", p.name, last)
		}(p)
	}
	agg := telemetry.NewAggregator()
	tally := &resetTally{}
	res, err := fed.RunDistributedOpts(fed.Config{Rounds: 6, Sequential: true, Codec: opts, Observer: tally}, lis, len(parties),
		fed.TransportOptions{
			Recorder:     agg,
			MaxRetries:   3,
			RetryBackoff: 5 * time.Millisecond,
			Reconnect:    func(string) (net.Conn, error) { return lis.Accept() },
		})
	wg.Wait()
	if err != nil {
		t.Fatalf("run failed despite the retry budget: %v", err)
	}
	if len(res.History) != 6 {
		t.Fatalf("completed %d rounds, want 6", len(res.History))
	}
	return res, agg, tally.resets
}

// A link severed mid-run under a negotiated codec: the coordinator
// reconnects, counts one reference-chain reset, and re-syncs the party with
// an absolute broadcast. Under the lossless delta codec the run ends on
// exactly the parameters of a run without faults.
func TestReconnectWithCodecResyncs(t *testing.T) {
	for _, tier := range []codec.Options{{Kind: codec.Delta}, {Kind: codec.Quant, Bits: 8}} {
		t.Run(tier.Name(), func(t *testing.T) {
			clean, _, cleanResets := runSevered(t, tier, false)
			cut, agg, resets := runSevered(t, tier, true)
			if cleanResets != 0 {
				t.Fatalf("fault-free run counted %d codec resets", cleanResets)
			}
			if got := agg.Counter(fed.MetricRPCRetries); got != 1 {
				t.Fatalf("retries = %d, want 1 (one severed link)", got)
			}
			if resets != 1 {
				t.Fatalf("codec resets = %d, want 1 (one re-sync after the reconnect)", resets)
			}
			if tier.Kind != codec.Delta {
				return
			}
			want, got := clean.FinalParams.Get("w").Data(), cut.FinalParams.Get("w").Data()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("w[%d] = %v after the reconnect, %v without faults", j, got[j], want[j])
				}
			}
		})
	}
}

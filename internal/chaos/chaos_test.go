package chaos

import (
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// stubClient is a minimal healthy fed.Client.
type stubClient struct {
	name   string
	params *nn.Params
}

func newStub(name string) *stubClient {
	p := nn.NewParams()
	p.Add("w", mat.New(1, 1))
	return &stubClient{name: name, params: p}
}

func (s *stubClient) Name() string                    { return s.name }
func (s *stubClient) NumSamples() int                 { return 1 }
func (s *stubClient) Params() *nn.Params              { return s.params }
func (s *stubClient) SetParams(g *nn.Params) error    { return s.params.CopyFrom(g) }
func (s *stubClient) TrainLocal(int) (float64, error) { return 0, nil }
func (s *stubClient) EvalVal() (int, int)             { return 1, 2 }
func (s *stubClient) EvalTest() (int, int)            { return 1, 2 }

// stubMomentAux adds both capability surfaces.
type stubMomentAux struct{ *stubClient }

func (s *stubMomentAux) LocalMeans() ([]*mat.Dense, int, error) {
	return []*mat.Dense{mat.New(1, 1)}, 1, nil
}
func (s *stubMomentAux) CentralAroundGlobal([]*mat.Dense) ([][]*mat.Dense, int, error) {
	return [][]*mat.Dense{{mat.New(1, 1)}}, 1, nil
}
func (s *stubMomentAux) SetGlobalStats([]*mat.Dense, [][]*mat.Dense) {}
func (s *stubMomentAux) UploadAux() *nn.Params                       { return s.params.Clone() }
func (s *stubMomentAux) DownloadAux(*nn.Params) error                { return nil }

func TestCrashClockFollowsTrainRound(t *testing.T) {
	g := newStub("g").params
	c := Wrap(newStub("p"), ClientConfig{Seed: 1, CrashAtRound: 2})
	for round := 0; round < 2; round++ {
		// Installs do not advance the clock, however many a round makes.
		for i := 0; i < 3; i++ {
			if err := c.SetParams(g); err != nil {
				t.Fatalf("round %d broadcast failed before the crash round: %v", round, err)
			}
		}
		if _, err := c.TrainLocal(round); err != nil {
			t.Fatalf("round %d train failed before the crash round: %v", round, err)
		}
	}
	if err := c.SetParams(g); err != nil {
		t.Fatalf("broadcast ahead of the crash round's training failed: %v", err)
	}
	if _, err := c.TrainLocal(2); err == nil {
		t.Fatal("training at the crash round succeeded")
	}
	if err := c.SetParams(g); err == nil {
		t.Fatal("crash is not permanent")
	}
}

func TestTransientFaultsAreDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		c := Wrap(newStub("p"), ClientConfig{Seed: seed, ErrRate: 0.5})
		out := make([]bool, 64)
		for i := range out {
			_, err := c.TrainLocal(i)
			out[i] = err != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	errs := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at call %d for the same seed", i)
		}
		if a[i] {
			errs++
		}
	}
	if errs == 0 || errs == len(a) {
		t.Fatalf("ErrRate 0.5 produced %d/%d faults — not a mix", errs, len(a))
	}
}

func TestNaNPoisonLeavesInnerModelClean(t *testing.T) {
	inner := newStub("p")
	c := Wrap(inner, ClientConfig{Seed: 3, NaNRate: 1})
	up := c.Params()
	if !math.IsNaN(up.Get("w").At(0, 0)) {
		t.Fatal("upload not poisoned at NaNRate 1")
	}
	if v := inner.params.Get("w").At(0, 0); math.IsNaN(v) {
		t.Fatal("poison leaked into the inner model")
	}
}

func TestWrapPreservesCapabilities(t *testing.T) {
	full := Wrap(&stubMomentAux{newStub("p")}, ClientConfig{})
	if _, ok := full.(fed.MomentClient); !ok {
		t.Fatal("MomentClient surface lost")
	}
	if _, ok := full.(fed.AuxClient); !ok {
		t.Fatal("AuxClient surface lost")
	}
	plain := Wrap(newStub("q"), ClientConfig{})
	if _, ok := plain.(fed.MomentClient); ok {
		t.Fatal("plain client gained MomentClient")
	}
	if _, ok := plain.(fed.AuxClient); ok {
		t.Fatal("plain client gained AuxClient")
	}
}

func TestWrapFleetCrashFraction(t *testing.T) {
	fleet := make([]fed.Client, 10)
	for i := range fleet {
		fleet[i] = newStub("p")
	}
	wrapped := WrapFleet(fleet, FleetConfig{Seed: 9, CrashFraction: 0.2, CrashAtRound: 1})
	g := newStub("g").params
	crashed := 0
	for _, c := range wrapped {
		if err := c.SetParams(g); err != nil {
			t.Fatalf("crash before the crash round: %v", err)
		}
		if _, err := c.TrainLocal(1); err != nil {
			crashed++
		}
	}
	if crashed != 2 {
		t.Fatalf("%d of 10 parties crashed, want ⌈0.2·10⌉ = 2", crashed)
	}
}

func TestConnSeversOnFirstWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	peerErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		peerErr <- err
	}()
	c := &Conn{Conn: a, SeverOnWrite: true}
	if _, err := c.Write([]byte("x")); err != ErrSevered {
		t.Fatalf("first write err = %v want ErrSevered", err)
	}
	select {
	case err := <-peerErr:
		if err == nil {
			t.Fatal("peer read succeeded over a severed link")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer read never unblocked — underlying conn not closed")
	}
	if _, err := c.Write([]byte("y")); err != ErrSevered {
		t.Fatalf("post-sever write err = %v want ErrSevered", err)
	}
	if _, err := c.Read(make([]byte, 1)); err != ErrSevered {
		t.Fatalf("post-sever read err = %v want ErrSevered", err)
	}
}

func TestFlakyListenerFailsFirstAccepts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fln := NewFlakyListener(ln, 1)
	for i := 0; i < 2; i++ {
		d, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		conn, err := fln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, flaky := conn.(*Conn)
		if want := i == 0; flaky != want {
			t.Fatalf("accept %d flaky = %v want %v", i, flaky, want)
		}
	}
}

func TestReadDelayStalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("x"))
		conn.Close()
	}()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := &Conn{Conn: d, ReadDelay: 30 * time.Millisecond}
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("read returned after %v, want ≥30ms", elapsed)
	}
}

func TestWrapFleetSustainedSlow(t *testing.T) {
	fleet := make([]fed.Client, 10)
	for i := range fleet {
		fleet[i] = newStub("p")
	}
	cfg := FleetConfig{
		Seed:         9,
		Latency:      time.Millisecond,
		HeavyTail:    true,
		SlowFraction: 0.25,
		SlowLatency:  50 * time.Millisecond,
	}
	victims := func(wrapped []fed.Client) []int {
		var idx []int
		for i, c := range wrapped {
			cc := c.(*Client).cfg
			if cc.Latency == cfg.SlowLatency {
				if cc.HeavyTail {
					t.Fatalf("party %d: sustained-slow must be deterministic, not heavy-tail", i)
				}
				idx = append(idx, i)
			} else if cc.Latency != cfg.Latency || !cc.HeavyTail {
				t.Fatalf("party %d: fleet-wide profile clobbered: %+v", i, cc)
			}
		}
		return idx
	}
	first := victims(WrapFleet(fleet, cfg))
	if len(first) != 3 {
		t.Fatalf("%d slow parties, want ⌈0.25·10⌉ = 3", len(first))
	}
	// Same seed, same victims: the draw is deterministic.
	second := victims(WrapFleet(fleet, cfg))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("slow draw not deterministic: %v vs %v", first, second)
	}
	// The slow draw must not disturb the crash draw of existing configs:
	// adding SlowFraction keeps the same crash victims (drawn first).
	crashVictims := func(c FleetConfig) []int {
		var idx []int
		for i, w := range WrapFleet(fleet, c) {
			if _, err := w.TrainLocal(1); err != nil { // the crash round
				idx = append(idx, i)
			}
		}
		return idx
	}
	plain := FleetConfig{Seed: 9, CrashFraction: 0.2, CrashAtRound: 1}
	withSlow := plain
	withSlow.SlowFraction = 0.25
	withSlow.SlowLatency = time.Microsecond
	if a, b := crashVictims(plain), crashVictims(withSlow); !reflect.DeepEqual(a, b) {
		t.Fatalf("slow draw perturbed the crash draw: %v vs %v", a, b)
	}
}

// TestCrashRoundSameUnderBothSchedules pins the crash clock to the runtime's
// round: a party scheduled to crash at round 2 fails first in round 2 under
// either schedule, although the async engine installs the global on an idle
// party twice a round (once to score it, once to dispatch).
func TestCrashRoundSameUnderBothSchedules(t *testing.T) {
	for _, agg := range []fed.AggregationMode{fed.AggSync, fed.AggAsync} {
		t.Run(agg.String(), func(t *testing.T) {
			fleet := []fed.Client{newStub("a"), newStub("b"),
				Wrap(newStub("c"), ClientConfig{Seed: 1, CrashAtRound: 2})}
			res, err := fed.Run(fed.Config{Rounds: 4, Policy: fed.DropRound, Aggregation: agg, BufferK: len(fleet)}, fleet)
			if err != nil {
				t.Fatal(err)
			}
			first := -1
			for _, h := range res.History {
				if h.Dropped > 0 {
					first = h.Round
					break
				}
			}
			if first != 2 {
				t.Fatalf("first failure in round %d, want the crash round 2", first)
			}
		})
	}
}

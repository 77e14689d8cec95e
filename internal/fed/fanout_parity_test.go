package fed_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedomd/internal/chaos"
	"fedomd/internal/codec"
	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/partition"
)

// fedomdFleet builds a fresh FedOMD client per non-empty party of Cora ÷12
// (10% of the nodes labelled for training) split three ways, named and
// seeded by position.
func fedomdFleet(t *testing.T) []fed.Client {
	t.Helper()
	pre, err := dataset.Preset("cora")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.Generate(dataset.Scaled(pre, 12), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Split(rand.New(rand.NewSource(2)), 0.1, 0.2, 0.2); err != nil {
		t.Fatal(err)
	}
	parties, err := partition.LouvainParties(g, 3, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Hidden = 16
	var fleet []fed.Client
	for _, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		c, err := core.NewClient(fmt.Sprintf("party-%d", len(fleet)), p.Graph, cfg, int64(3+len(fleet)))
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, c)
	}
	return fleet
}

// joinSignal reports each accepted connection, so parties can join the
// coordinator one at a time, in fleet order.
type joinSignal struct {
	net.Listener
	joined chan struct{}
}

func (l joinSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.joined <- struct{}{}
	}
	return c, err
}

// runOverTCP serves the fleet over loopback TCP, in fleet order, to a
// coordinator running cfg.
func runOverTCP(t *testing.T, cfg fed.Config, fleet []fed.Client) *fed.Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sig := joinSignal{Listener: ln, joined: make(chan struct{}, 1)}
	type outcome struct {
		res *fed.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fed.RunDistributed(cfg, sig, len(fleet))
		done <- outcome{res, err}
	}()
	var wg sync.WaitGroup
	for _, c := range fleet {
		wg.Add(1)
		go func(c fed.Client) {
			defer wg.Done()
			if err := fed.ServeClient(ln.Addr().String(), c); err != nil {
				t.Errorf("%s: %v", c.Name(), err)
			}
		}(c)
		<-sig.joined
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.res
}

// faultTally counts, per exchange call, the faults the chaos schedule
// injected at one party, so the test can show that failures land inside
// every fanned-out phase.
type faultTally struct {
	fed.MomentClient
	faults map[string]int
}

func (f *faultTally) note(op string, err error) error {
	if err != nil {
		f.faults[op]++
	}
	return err
}

func (f *faultTally) SetParams(g *nn.Params) error {
	return f.note("set_params", f.MomentClient.SetParams(g))
}

func (f *faultTally) TrainLocal(round int) (float64, error) {
	loss, err := f.MomentClient.TrainLocal(round)
	return loss, f.note("train_local", err)
}

func (f *faultTally) Params() *nn.Params {
	p := f.MomentClient.Params()
	if math.IsNaN(p.At(0).At(0, 0)) {
		f.faults["params"]++
	}
	return p
}

func (f *faultTally) LocalMeans() ([]*mat.Dense, int, error) {
	means, n, err := f.MomentClient.LocalMeans()
	return means, n, f.note("local_means", err)
}

func (f *faultTally) CentralAroundGlobal(gm []*mat.Dense) ([][]*mat.Dense, int, error) {
	moms, n, err := f.MomentClient.CentralAroundGlobal(gm)
	return moms, n, f.note("central_around_global", err)
}

// TestFanOutMatchesSequential runs FedOMD with the per-party phases fanned
// out and with Config.Sequential, and requires the two runs to agree on
// every history row (wall-clock bounds aside), the final parameters bit for
// bit, both byte totals and the per-party failure counts: over loopback TCP
// with q8, in process with delta, and under DropRound with chaos faults
// injected into every phase (each party draws from its own fault stream, so
// the schedule does not depend on the order parties are driven in).
func TestFanOutMatchesSequential(t *testing.T) {
	tallies := map[string]int{}
	for _, leg := range []struct {
		name string
		run  func(cfg fed.Config) *fed.Result
	}{
		{"tcp-q8", func(cfg fed.Config) *fed.Result {
			cfg.Codec = codec.Options{Kind: codec.Quant, Bits: 8}
			return runOverTCP(t, cfg, fedomdFleet(t))
		}},
		{"delta", func(cfg fed.Config) *fed.Result {
			cfg.Codec = codec.Options{Kind: codec.Delta}
			res, err := fed.Run(cfg, fedomdFleet(t))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"chaos-droparound", func(cfg fed.Config) *fed.Result {
			cfg.Rounds, cfg.Policy = 8, fed.DropRound
			fleet := chaos.WrapFleet(fedomdFleet(t), chaos.FleetConfig{Seed: 19, ErrRate: 0.08, NaNRate: 0.15})
			for i, c := range fleet {
				fleet[i] = &faultTally{MomentClient: c.(fed.MomentClient), faults: map[string]int{}}
			}
			res, err := fed.Run(cfg, fleet)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range fleet {
				for op, n := range c.(*faultTally).faults {
					tallies[op] += n
				}
			}
			return res
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			fanned := leg.run(fed.Config{Rounds: 4})
			serial := leg.run(fed.Config{Rounds: 4, Sequential: true})
			if len(fanned.History) != len(serial.History) {
				t.Fatalf("%d history rows, want %d", len(fanned.History), len(serial.History))
			}
			for r := range serial.History {
				f, s := fanned.History[r], serial.History[r]
				f.Start, f.End, s.Start, s.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
				if f != s {
					t.Fatalf("round %d: fanned out %+v, sequential %+v", r, f, s)
				}
			}
			for _, name := range serial.FinalParams.Names() {
				if !fanned.FinalParams.Get(name).Equal(serial.FinalParams.Get(name)) {
					t.Fatalf("final parameter %s differs", name)
				}
			}
			if fanned.TotalBytesUp != serial.TotalBytesUp || fanned.TotalBytesDown != serial.TotalBytesDown {
				t.Fatalf("bytes up %d down %d, sequential up %d down %d",
					fanned.TotalBytesUp, fanned.TotalBytesDown, serial.TotalBytesUp, serial.TotalBytesDown)
			}
			if !reflect.DeepEqual(fanned.ClientFailures, serial.ClientFailures) {
				t.Fatalf("failures %v, sequential %v", fanned.ClientFailures, serial.ClientFailures)
			}
		})
	}
	for _, op := range []string{"set_params", "local_means", "central_around_global", "train_local", "params"} {
		if tallies[op] == 0 {
			t.Errorf("the chaos leg injected no fault into %s", op)
		}
	}
}

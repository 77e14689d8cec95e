package core

import (
	"errors"
	"fmt"
	"testing"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/telemetry"
)

// uncached is the ablation of the eval pass: it clears the valid bit before
// every eval-side call, so each of the four runs its own forward — what every
// round paid before the pass was shared.
type uncached struct{ *Client }

func (u uncached) EvalVal() (int, int) {
	u.ev.valid = false
	return u.Client.EvalVal()
}

func (u uncached) EvalTest() (int, int) {
	u.ev.valid = false
	return u.Client.EvalTest()
}

func (u uncached) LocalMeans() ([]*mat.Dense, int, error) {
	u.ev.valid = false
	return u.Client.LocalMeans()
}

func (u uncached) CentralAroundGlobal(gm []*mat.Dense) ([][]*mat.Dense, int, error) {
	u.ev.valid = false
	return u.Client.CentralAroundGlobal(gm)
}

func sameDense(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if gr, gc := got.Dims(); gr != want.Rows() || gc != want.Cols() {
		t.Errorf("%s: shape %dx%d, want %dx%d", what, gr, gc, want.Rows(), want.Cols())
		return
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; g != w {
			t.Errorf("%s[%d] = %v, want %v", what, i, g, w)
			return
		}
	}
}

// TestEvalPassLeavesRunBitIdentical is the differential pin: a federated run
// over clients that share one eval pass per parameter version must equal,
// float for float, the run in which every call does its own forward.
func TestEvalPassLeavesRunBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		epochs   int
		fraction float64
	}{
		{"epochs1", 1, 0},
		{"epochs2", 2, 0},
		{"fraction", 1, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ablate bool) (*fed.Result, []*Client) {
				cfg := quickConfig()
				cfg.Dropout = 0.2 // training draws from the RNG; eval must not
				cfg.LocalEpochs = tc.epochs
				clients, _, err := NewClients(tinyGraph(t, 8), 3, 1.0, cfg, 11)
				if err != nil {
					t.Fatal(err)
				}
				fc := make([]fed.Client, len(clients))
				for i, c := range clients {
					fc[i] = c
					if ablate {
						fc[i] = uncached{c}
					}
				}
				res, err := fed.Run(fed.Config{Rounds: 9, ClientFraction: tc.fraction, SampleSeed: 5}, fc)
				if err != nil {
					t.Fatal(err)
				}
				return res, clients
			}
			got, gotClients := run(false)
			want, wantClients := run(true)
			if len(got.History) != 9 || len(want.History) != 9 {
				t.Fatalf("history %d / %d rounds, want 9", len(got.History), len(want.History))
			}
			for r, w := range want.History {
				g := got.History[r]
				if g.TrainLoss != w.TrainLoss || g.ValAcc != w.ValAcc || g.TestAcc != w.TestAcc ||
					g.BytesUp != w.BytesUp || g.BytesDown != w.BytesDown {
					t.Fatalf("round %d: shared pass %+v, own forwards %+v", r, g, w)
				}
			}
			if got.FinalValAcc != want.FinalValAcc || got.FinalTestAcc != want.FinalTestAcc {
				t.Fatalf("final score %v/%v, want %v/%v", got.FinalValAcc, got.FinalTestAcc, want.FinalValAcc, want.FinalTestAcc)
			}
			for i := 0; i < want.FinalParams.Len(); i++ {
				sameDense(t, "FinalParams "+want.FinalParams.Names()[i], got.FinalParams.At(i), want.FinalParams.At(i))
			}
			for i, wc := range wantClients {
				gc := gotClients[i]
				if len(gc.globalMeans) != len(wc.globalMeans) || len(wc.globalMeans) == 0 {
					t.Fatalf("client %d holds %d global means, want %d (> 0)", i, len(gc.globalMeans), len(wc.globalMeans))
				}
				for l := range wc.globalMeans {
					sameDense(t, fmt.Sprintf("client %d global mean %d", i, l), gc.globalMeans[l], wc.globalMeans[l])
					for k := range wc.globalCentral[l] {
						sameDense(t, fmt.Sprintf("client %d layer %d order %d", i, l, k+2), gc.globalCentral[l][k], wc.globalCentral[l][k])
					}
				}
			}
		})
	}
}

// requireFresh checks that everything c answers from its eval pass equals a
// newly built client holding the same weights. It reads the weights through
// c.model, not c.Params(), so the check itself drops nothing.
func requireFresh(t *testing.T, c *Client, spectralBound bool) {
	t.Helper()
	fresh, err := NewClient("fresh", c.g, c.cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	fresh.model.SetSpectralBound(spectralBound)
	if err := fresh.model.Params().CopyFrom(c.model.Params()); err != nil {
		t.Fatal(err)
	}
	for name, mask := range map[string][]int{"val": c.g.ValMask, "test": c.g.TestMask} {
		gc, gt := c.Accuracy(mask)
		wc, wt := fresh.Accuracy(mask)
		if gc != wc || gt != wt {
			t.Errorf("%s accuracy %d/%d, fresh client %d/%d", name, gc, gt, wc, wt)
		}
	}
	got, _, err := c.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	for l := range want {
		sameDense(t, fmt.Sprintf("mean %d", l), got[l], want[l])
	}
	if c.obsMax != fresh.obsMax {
		t.Errorf("observed max %v, fresh client %v", c.obsMax, fresh.obsMax)
	}
	gotC, _, err := c.CentralAroundGlobal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantC, _, err := fresh.CentralAroundGlobal(want)
	if err != nil {
		t.Fatal(err)
	}
	for l := range wantC {
		for k := range wantC[l] {
			sameDense(t, fmt.Sprintf("layer %d order %d", l, k+2), gotC[l][k], wantC[l][k])
		}
	}
}

// TestEvalPassDroppedByEveryWeightChange fills the pass, changes the weights
// one way per case, and requires the answers to follow.
func TestEvalPassDroppedByEveryWeightChange(t *testing.T) {
	other, err := NewClient("other", tinyGraph(t, 31), quickConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		bound  bool
		change func(t *testing.T, c *Client)
	}{
		{"SetParams", true, func(t *testing.T, c *Client) {
			if err := c.SetParams(other.model.Params()); err != nil {
				t.Fatal(err)
			}
		}},
		{"TrainLocal", true, func(t *testing.T, c *Client) {
			if _, err := c.TrainLocal(0); err != nil {
				t.Fatal(err)
			}
		}},
		{"Params handle", true, func(t *testing.T, c *Client) {
			c.Params().Get("w_in").ScaleInPlace(-0.5)
		}},
		{"Model HardOrthogonalize", true, func(t *testing.T, c *Client) {
			m := c.Model()
			m.Params().Get("w_ortho1").ScaleInPlace(3)
			if err := m.HardOrthogonalize(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Model spectral bound off", false, func(t *testing.T, c *Client) {
			m := c.Model()
			m.SetSpectralBound(false)
			m.Params().Get("w_ortho1").ScaleInPlace(1e3)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClient("c", tinyGraph(t, 31), quickConfig(), 7)
			if err != nil {
				t.Fatal(err)
			}
			c.EvalVal()
			if !c.ev.valid {
				t.Fatal("EvalVal left no eval pass behind")
			}
			tc.change(t, c)
			requireFresh(t, c, tc.bound)
		})
	}
}

// flakyBroadcast loses one broadcast. At that moment the party holds the
// weights it trained last round, and so must its eval pass; every other
// broadcast must replace both.
type flakyBroadcast struct {
	*Client
	t      *testing.T
	failAt int
	calls  int
}

func (f *flakyBroadcast) SetParams(global *nn.Params) error {
	f.calls++
	if f.calls == f.failAt {
		f.Client.EvalVal() // hold a pass over the stale weights through the dropped round
		requireFresh(f.t, f.Client, true)
		return errors.New("broadcast lost")
	}
	return f.Client.SetParams(global)
}

func (f *flakyBroadcast) EvalVal() (int, int) {
	requireFresh(f.t, f.Client, true)
	return f.Client.EvalVal()
}

func TestEvalPassSurvivesDroppedBroadcast(t *testing.T) {
	clients, _, err := NewClients(tinyGraph(t, 8), 3, 1.0, quickConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBroadcast{Client: clients[1], t: t, failAt: 3}
	fc := []fed.Client{clients[0], flaky, clients[2]}
	// Sequential keeps every client call, and so requireFresh, on this goroutine.
	res, err := fed.Run(fed.Config{Rounds: 6, Policy: fed.DropRound, Sequential: true}, fc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientFailures[flaky.Name()] != 1 || !res.History[2].Degraded {
		t.Fatalf("failures %v, round 2 degraded=%v: the broadcast was not dropped", res.ClientFailures, res.History[2].Degraded)
	}
	for _, c := range clients {
		requireFresh(t, c, true)
		sameDense(t, c.name+" w_in", c.model.Params().Get("w_in"), res.FinalParams.Get("w_in"))
	}
}

// TestEvalPassSharedByFourCalls: after a broadcast the first eval-side call
// records the forward; the other three record nothing on any tape.
func TestEvalPassSharedByFourCalls(t *testing.T) {
	c, err := NewClient("c", tinyGraph(t, 31), quickConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewClient("other", tinyGraph(t, 31), quickConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	means, _, err := other.LocalMeans()
	if err != nil {
		t.Fatal(err)
	}
	tapeOps := func() int64 { return telemetry.GlobalCounters()["ad/tape_ops"] }
	calls := []func(){
		func() { c.EvalVal() },
		func() { c.EvalTest() },
		func() {
			if _, _, err := c.LocalMeans(); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, _, err := c.CentralAroundGlobal(means); err != nil {
				t.Fatal(err)
			}
		},
	}
	for first := range calls {
		if err := c.SetParams(other.model.Params()); err != nil {
			t.Fatal(err)
		}
		before := tapeOps()
		calls[first]()
		if tapeOps() == before {
			t.Fatalf("call %d after SetParams recorded no forward", first)
		}
		before = tapeOps()
		for i, call := range calls {
			if i != first {
				call()
			}
		}
		if d := tapeOps() - before; d != 0 {
			t.Fatalf("calls after call %d recorded %d tape ops, want 0", first, d)
		}
	}
}

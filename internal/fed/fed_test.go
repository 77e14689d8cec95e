package fed

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
)

// fakeClient is a controllable Client for runtime tests.
type fakeClient struct {
	name     string
	samples  int
	params   *nn.Params
	trainVal float64 // value TrainLocal writes into the parameter
	loss     float64
	valAcc   [2]int
	testAcc  [2]int
	trainErr error

	trainCalls int32
	setCalls   int32
	received   []float64 // values seen via SetParams
}

func newFakeClient(name string, samples int, initVal float64) *fakeClient {
	p := nn.NewParams()
	m := mat.New(1, 1)
	m.Set(0, 0, initVal)
	p.Add("w", m)
	return &fakeClient{name: name, samples: samples, params: p, trainVal: initVal,
		valAcc: [2]int{1, 2}, testAcc: [2]int{1, 2}}
}

func (f *fakeClient) Name() string       { return f.name }
func (f *fakeClient) NumSamples() int    { return f.samples }
func (f *fakeClient) Params() *nn.Params { return f.params }
func (f *fakeClient) SetParams(g *nn.Params) error {
	atomic.AddInt32(&f.setCalls, 1)
	f.received = append(f.received, g.Get("w").At(0, 0))
	return f.params.CopyFrom(g)
}
func (f *fakeClient) TrainLocal(int) (float64, error) {
	atomic.AddInt32(&f.trainCalls, 1)
	if f.trainErr != nil {
		return 0, f.trainErr
	}
	f.params.Get("w").Set(0, 0, f.trainVal)
	return f.loss, nil
}
func (f *fakeClient) EvalVal() (int, int)  { return f.valAcc[0], f.valAcc[1] }
func (f *fakeClient) EvalTest() (int, int) { return f.testAcc[0], f.testAcc[1] }

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Rounds: 1}, nil); err == nil {
		t.Fatal("no clients accepted")
	}
	if _, err := Run(Config{Rounds: 0}, []Client{newFakeClient("a", 1, 0)}); err == nil {
		t.Fatal("0 rounds accepted")
	}
	if _, err := Run(Config{Rounds: 1}, []Client{nil}); err == nil {
		t.Fatal("nil client accepted")
	}
}

func TestRunFedAvgWeighted(t *testing.T) {
	// Client a (3 samples) trains to 1, client b (1 sample) trains to 5:
	// aggregate should be 2.
	a := newFakeClient("a", 3, 0)
	a.trainVal = 1
	b := newFakeClient("b", 1, 0)
	b.trainVal = 5
	res, err := Run(Config{Rounds: 1}, []Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalParams.Get("w").At(0, 0); got != 2 {
		t.Fatalf("FedAvg = %v want 2", got)
	}
	if res.TotalBytesUp == 0 || res.TotalBytesDown == 0 {
		t.Fatal("communication accounting missing")
	}
}

func TestRunBroadcastsAggregate(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	a.trainVal = 2
	b := newFakeClient("b", 1, 0)
	b.trainVal = 4
	if _, err := Run(Config{Rounds: 2}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	// Round 0 broadcast is the initial model (0); round 1 broadcast is the
	// round-0 aggregate (3); the final install delivers the round-1
	// aggregate (3 again) for the closing scoring pass.
	if len(a.received) != 3 || a.received[0] != 0 || a.received[1] != 3 || a.received[2] != 3 {
		t.Fatalf("broadcast values = %v want [0 3 3]", a.received)
	}
}

func TestRunParallelAndSequentialAgree(t *testing.T) {
	mk := func() []Client {
		a := newFakeClient("a", 2, 0)
		a.trainVal = 1
		b := newFakeClient("b", 3, 0)
		b.trainVal = 2
		c := newFakeClient("c", 5, 0)
		c.trainVal = 3
		return []Client{a, b, c}
	}
	par, err := Run(Config{Rounds: 3}, mk())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(Config{Rounds: 3, Sequential: true}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if par.FinalParams.Get("w").At(0, 0) != seq.FinalParams.Get("w").At(0, 0) {
		t.Fatal("parallel and sequential runs disagree")
	}
}

func TestRunPropagatesTrainError(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	a.trainErr = errors.New("boom")
	if _, err := Run(Config{Rounds: 1}, []Client{a}); err == nil {
		t.Fatal("training error swallowed")
	}
}

func TestEarlyStoppingPatience(t *testing.T) {
	// Constant validation accuracy: after the first round nothing improves,
	// so patience 3 must stop well before 50 rounds.
	a := newFakeClient("a", 1, 0)
	res, err := Run(Config{Rounds: 50, Patience: 3}, []Client{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) >= 50 {
		t.Fatalf("early stopping did not fire: %d rounds", len(res.History))
	}
	if res.BestRound != 0 {
		t.Fatalf("best round = %d want 0", res.BestRound)
	}
}

func TestAccuracyWeightedAcrossClients(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	a.testAcc = [2]int{9, 10} // 90% on 10 nodes
	b := newFakeClient("b", 1, 0)
	b.testAcc = [2]int{0, 30} // 0% on 30 nodes
	res, err := Run(Config{Rounds: 1}, []Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := 9.0 / 40.0
	if got := res.History[0].TestAcc; got != want {
		t.Fatalf("weighted test acc = %v want %v", got, want)
	}
}

func TestRunLocalOnlyNoBroadcast(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	a.trainVal = 1
	b := newFakeClient("b", 1, 0)
	b.trainVal = 9
	res, err := RunLocalOnly(Config{Rounds: 2}, []Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if a.setCalls != 0 || b.setCalls != 0 {
		t.Fatal("RunLocalOnly must not broadcast")
	}
	// Parameters stay local (no averaging).
	if a.params.Get("w").At(0, 0) != 1 || b.params.Get("w").At(0, 0) != 9 {
		t.Fatal("local params were aggregated")
	}
	if res.TotalBytesUp != 0 {
		t.Fatal("local-only run counted communication")
	}
}

// TestRunLocalOnlyRefusesWhatItCannotHonour: every option a local-only run
// would otherwise drop is refused by name, while the failure policy's tuning
// (moot under FailFast) and a full ClientFraction still run.
func TestRunLocalOnlyRefusesWhatItCannotHonour(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Codec", Config{Codec: codec.Options{Kind: codec.Delta}}},
		{"Aggregation", Config{Aggregation: AggAsync}},
		{"Policy", Config{Policy: DropRound}},
		{"ClientTimeout", Config{ClientTimeout: time.Second}},
		{"ClientFraction", Config{ClientFraction: 0.5}},
		{"CheckpointWriter", Config{CheckpointEvery: 1, CheckpointWriter: func(*Checkpoint) error { return nil }}},
		{"Resume", Config{Resume: &Checkpoint{}}},
		{"", Config{MinClients: 1, MaxStrikes: 3, CooldownRounds: 1, CheckpointEvery: 10, ClientFraction: 1}},
	} {
		cfg := tc.cfg
		cfg.Rounds = 1
		_, err := RunLocalOnly(cfg, []Client{newFakeClient("a", 1, 0)})
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("defaults refused: %v", err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field)):
			t.Errorf("%s: err = %v, want a refusal naming it", tc.field, err)
		}
	}
}

// momentFake implements MomentClient over fixed local data.
type momentFake struct {
	*fakeClient
	data *mat.Dense

	gotMeans   []*mat.Dense
	gotCentral [][]*mat.Dense
}

func (m *momentFake) LocalMeans() ([]*mat.Dense, int, error) {
	return []*mat.Dense{mat.MeanRows(m.data)}, m.data.Rows(), nil
}

func (m *momentFake) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	return [][]*mat.Dense{moments.CentralAround(m.data, globalMeans[0], 5)}, m.data.Rows(), nil
}

func (m *momentFake) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	m.gotMeans = means
	m.gotCentral = central
}

func TestMomentExchangeMatchesPooled(t *testing.T) {
	d1, _ := mat.NewFromRows([][]float64{{0}, {2}})
	d2, _ := mat.NewFromRows([][]float64{{10}, {12}, {14}, {16}})
	a := &momentFake{fakeClient: newFakeClient("a", 2, 0), data: d1}
	b := &momentFake{fakeClient: newFakeClient("b", 4, 0), data: d2}
	if _, err := Run(Config{Rounds: 1}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.gotMeans == nil || b.gotMeans == nil {
		t.Fatal("global stats not delivered")
	}
	// Pooled reference over all 6 values.
	pooled, _ := mat.NewFromRows([][]float64{{0}, {2}, {10}, {12}, {14}, {16}})
	wantMean := mat.MeanRows(pooled)
	wantCentral := moments.CentralAround(pooled, wantMean, 5)
	if !a.gotMeans[0].EqualApprox(wantMean, 1e-12) {
		t.Fatalf("global mean %v want %v", a.gotMeans[0], wantMean)
	}
	for k := range wantCentral {
		if !a.gotCentral[0][k].EqualApprox(wantCentral[k], 1e-9) {
			t.Fatalf("global central order %d = %v want %v", k+2, a.gotCentral[0][k], wantCentral[k])
		}
	}
}

func TestMomentExchangeSkippedForMixedClients(t *testing.T) {
	d, _ := mat.NewFromRows([][]float64{{1}, {2}})
	a := &momentFake{fakeClient: newFakeClient("a", 1, 0), data: d}
	b := newFakeClient("b", 1, 0)
	if _, err := Run(Config{Rounds: 1}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.gotMeans != nil {
		t.Fatal("moment exchange ran with a non-moment client present")
	}
}

// auxFake implements AuxClient.
type auxFake struct {
	*fakeClient
	auxVal     float64
	downloaded float64
}

func (a *auxFake) UploadAux() *nn.Params {
	p := nn.NewParams()
	m := mat.New(1, 1)
	m.Set(0, 0, a.auxVal)
	p.Add("c", m)
	return p
}

func (a *auxFake) DownloadAux(g *nn.Params) error {
	a.downloaded = g.Get("c").At(0, 0)
	return nil
}

func TestAuxExchangeAverages(t *testing.T) {
	a := &auxFake{fakeClient: newFakeClient("a", 1, 0), auxVal: 2}
	b := &auxFake{fakeClient: newFakeClient("b", 1, 0), auxVal: 6}
	if _, err := Run(Config{Rounds: 1}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.downloaded != 4 || b.downloaded != 4 {
		t.Fatalf("aux aggregate = %v/%v want 4", a.downloaded, b.downloaded)
	}
}

// Aux state is averaged with the FedAvg weights (NumSamples, at least 1),
// as SCAFFOLD averages c with the same weights as w: a party with three
// times the training nodes pulls c three times as hard, and a party with
// none, which never moves its c_i off zero, counts once.
func TestAuxExchangeWeightsBySamples(t *testing.T) {
	a := &auxFake{fakeClient: newFakeClient("a", 3, 0), auxVal: 2}
	b := &auxFake{fakeClient: newFakeClient("b", 1, 0), auxVal: 6}
	z := &auxFake{fakeClient: newFakeClient("z", 0, 0), auxVal: 0}
	if _, err := Run(Config{Rounds: 1}, []Client{a, b, z}); err != nil {
		t.Fatal(err)
	}
	const want = (3*2 + 1*6 + 1*0) / 5.0
	for _, c := range []*auxFake{a, b, z} {
		if math.Abs(c.downloaded-want) > 1e-12 {
			t.Fatalf("%s downloaded aux %v, want the sample-weighted %v", c.name, c.downloaded, want)
		}
	}
}

func TestHistoryRecordsEveryRound(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	res, err := Run(Config{Rounds: 5}, []Client{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 {
		t.Fatalf("history rows = %d", len(res.History))
	}
	for i, h := range res.History {
		if h.Round != i {
			t.Fatalf("round numbering wrong at %d", i)
		}
	}
}

func TestZeroSampleClientStillAggregates(t *testing.T) {
	a := newFakeClient("a", 0, 0) // no training nodes
	a.trainVal = 4
	b := newFakeClient("b", 0, 0)
	b.trainVal = 8
	res, err := Run(Config{Rounds: 1}, []Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalParams.Get("w").At(0, 0); got != 6 {
		t.Fatalf("zero-sample aggregation = %v want 6", got)
	}
}

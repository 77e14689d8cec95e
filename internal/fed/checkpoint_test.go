package fed

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// roundTrainer's parameters depend on the round number, so every round
// produces a distinct aggregate and any resume misalignment shows up in the
// history comparison.
type roundTrainer struct {
	*fakeClient
	base float64
}

func (r *roundTrainer) TrainLocal(round int) (float64, error) {
	r.params.Get("w").Set(0, 0, r.base*float64(round+1))
	return 0.1 * r.base, nil
}

// checkpointFleet builds four deterministic parties with distinct weights so
// partial-participation cohorts matter.
func checkpointFleet() []Client {
	out := make([]Client, 4)
	for i := range out {
		f := newFakeClient([]string{"a", "b", "c", "d"}[i], i+1, 0)
		out[i] = &roundTrainer{fakeClient: f, base: float64(i + 1)}
	}
	return out
}

// checkpointConfig exercises partial participation so resume must also
// restore the sampler stream.
func checkpointConfig() Config {
	return Config{Rounds: 8, ClientFraction: 0.5, SampleSeed: 7, Sequential: true}
}

// stripTimes clears the wall-clock fields so histories from separate runs
// (or a run and its resume) compare on the protocol-determined values.
func stripTimes(h []RoundStats) []RoundStats {
	out := append([]RoundStats(nil), h...)
	for i := range out {
		out[i].Start, out[i].End = time.Time{}, time.Time{}
	}
	return out
}

func assertSameResult(t *testing.T, full, resumed *Result) {
	t.Helper()
	if !reflect.DeepEqual(stripTimes(full.History), stripTimes(resumed.History)) {
		t.Fatalf("history diverged:\nfull    %+v\nresumed %+v", full.History, resumed.History)
	}
	if full.BestValAcc != resumed.BestValAcc || full.TestAtBestVal != resumed.TestAtBestVal ||
		full.BestRound != resumed.BestRound {
		t.Fatalf("best tracking diverged: %v/%v/%d vs %v/%v/%d",
			full.BestValAcc, full.TestAtBestVal, full.BestRound,
			resumed.BestValAcc, resumed.TestAtBestVal, resumed.BestRound)
	}
	if full.TotalBytesUp != resumed.TotalBytesUp || full.TotalBytesDown != resumed.TotalBytesDown {
		t.Fatal("traffic totals diverged")
	}
	if d, err := full.FinalParams.L2Distance(resumed.FinalParams); err != nil || d != 0 {
		t.Fatalf("final params differ by %v (%v)", d, err)
	}
	if full.FinalValAcc != resumed.FinalValAcc || full.FinalTestAcc != resumed.FinalTestAcc {
		t.Fatal("final scoring diverged")
	}
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	full, err := Run(checkpointConfig(), checkpointFleet())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: killed after round 3, having snapshotted at rounds
	// 2 and 4 is not possible (CheckpointEvery=4 fires once, after round 3).
	var snap *Checkpoint
	interrupted := checkpointConfig()
	interrupted.Rounds = 4
	interrupted.CheckpointEvery = 4
	interrupted.CheckpointWriter = func(ck *Checkpoint) error { snap = ck; return nil }
	if _, err := Run(interrupted, checkpointFleet()); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("checkpoint writer never fired")
	}
	if snap.Round != 4 {
		t.Fatalf("snapshot round = %d want 4", snap.Round)
	}

	resumedCfg := checkpointConfig()
	resumedCfg.Resume = snap
	resumed, err := Run(resumedCfg, checkpointFleet())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, full, resumed)
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	full, err := Run(checkpointConfig(), checkpointFleet())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "server.ckpt")
	interrupted := checkpointConfig()
	interrupted.Rounds = 6
	interrupted.CheckpointEvery = 2 // overwritten in place; the last one wins
	interrupted.CheckpointWriter = FileCheckpointer(path)
	if _, err := Run(interrupted, checkpointFleet()); err != nil {
		t.Fatal(err)
	}

	snap, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 6 {
		t.Fatalf("loaded snapshot round = %d want 6", snap.Round)
	}
	resumedCfg := checkpointConfig()
	resumedCfg.Resume = snap
	resumed, err := Run(resumedCfg, checkpointFleet())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, full, resumed)
}

func TestResumeRejectsIncompatibleModel(t *testing.T) {
	var snap *Checkpoint
	cfg := Config{Rounds: 2, CheckpointEvery: 2,
		CheckpointWriter: func(ck *Checkpoint) error { snap = ck; return nil }}
	if _, err := Run(cfg, []Client{newFakeClient("a", 1, 0)}); err != nil {
		t.Fatal(err)
	}
	// A fleet with a different parameter schema must be refused.
	other := &momentFake{fakeClient: newFakeClient("a", 1, 0)}
	other.params.Add("extra", other.params.Get("w").Clone())
	if _, err := Run(Config{Rounds: 4, Resume: snap}, []Client{other}); err == nil {
		t.Fatal("incompatible resume accepted")
	}
}

func TestCheckpointCarriesQuarantineState(t *testing.T) {
	// Party a fails rounds 0-1 with MaxStrikes 2 → benched for round 2.
	// Resuming from the round-2 snapshot must keep it benched.
	mk := func() []Client {
		a := &flakyTrainer{fakeClient: newFakeClient("a", 1, 0), failRounds: map[int]bool{0: true, 1: true}}
		return []Client{a, newFakeClient("b", 1, 0)}
	}
	cfg := Config{Rounds: 5, Policy: Quarantine, MaxStrikes: 2, Sequential: true}
	full, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}

	var snap *Checkpoint
	interrupted := cfg
	interrupted.Rounds = 2
	interrupted.CheckpointEvery = 2
	interrupted.CheckpointWriter = func(ck *Checkpoint) error { snap = ck; return nil }
	if _, err := Run(interrupted, mk()); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Strikes["a"] != 2 || snap.BenchedUntil["a"] == 0 {
		t.Fatalf("quarantine state not checkpointed: %+v", snap)
	}

	fleet := mk()
	resumedCfg := cfg
	resumedCfg.Resume = snap
	resumed, err := Run(resumedCfg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	a := fleet[0].(*flakyTrainer)
	// Rounds 0-1 already ran before the snapshot: the resumed run must bench
	// round 2 and probe at round 3, exactly like the uninterrupted schedule.
	if want := []int{3, 4}; !reflect.DeepEqual(a.calls, want) {
		t.Fatalf("resumed train rounds = %v want %v", a.calls, want)
	}
	if resumed.ClientFailures["a"] != full.ClientFailures["a"] {
		t.Fatalf("failure tally = %d want %d", resumed.ClientFailures["a"], full.ClientFailures["a"])
	}
}

// legacyCheckpoint mirrors the on-disk snapshot format from before the
// ModelSpec header existed: every Checkpoint field except Spec. Encoding it
// and decoding into the current struct is exactly what loading an old
// checkpoint file does.
type legacyCheckpoint struct {
	Round          int
	SamplerDraws   int
	Global         *wireParams
	History        []RoundStats
	BestValAcc     float64
	TestAtBestVal  float64
	BestRound      int
	BadRounds      int
	TotalBytesUp   int64
	TotalBytesDown int64
	Failures       map[string]int
	Strikes        map[string]int
	BenchedUntil   map[string]int
	BenchCount     map[string]int
	AsyncBuffer    []AsyncBufferedUpdate
	AsyncDispatch  map[string]int
	AsyncMeans     []wireDense
	AsyncCentral   [][]wireDense
	AsyncAux       *wireParams
}

func specTestParams() *nn.Params {
	p := nn.NewParams()
	p.Add("w", mat.NewFromData(2, 2, []float64{1, 2, 3, 4}))
	p.Add("b", mat.NewFromData(1, 2, []float64{-0.5, 0.25}))
	return p
}

// TestCheckpointPreSpecHeaderCompat pins backward compatibility: snapshots
// written before the model-config header existed still load, with Spec nil
// and every other field intact.
func TestCheckpointPreSpecHeaderCompat(t *testing.T) {
	legacy := legacyCheckpoint{
		Round:      5,
		Global:     paramsToWire(specTestParams()),
		BestValAcc: 0.75,
		Failures:   map[string]int{"party-a": 2},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("pre-header checkpoint refused: %v", err)
	}
	if ck.Spec != nil {
		t.Fatalf("pre-header checkpoint decoded with non-nil Spec %+v", ck.Spec)
	}
	if ck.Round != 5 || ck.BestValAcc != 0.75 || ck.Failures["party-a"] != 2 {
		t.Fatalf("legacy fields corrupted: %+v", ck)
	}
	got, err := ck.GlobalParams()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Compatible(specTestParams()); err != nil {
		t.Fatalf("legacy global params unusable: %v", err)
	}
	if got.Get("w").At(1, 1) != 4 {
		t.Fatalf("legacy global params corrupted: %v", got.Get("w").Data())
	}
}

// dimsHopsSpec freezes ModelSpec as it was written while the header still
// carried the layer dimensions of MLP/GCN models and SGC's hop count.
type dimsHopsSpec struct {
	SpecVersion          int
	Model                string
	Features, Classes    int
	Hidden, HiddenLayers int
	Dims                 []int
	Dropout              float64
	SpectralBound        bool
	Hops                 int
	Dataset              string
	Divisor              int
	DataSeed             int64
}

// TestCheckpointDimsHopsSpecCompat pins that a header written with Dims and
// Hops still loads: gob drops the two fields the current ModelSpec lacks and
// keeps every other one.
func TestCheckpointDimsHopsSpecCompat(t *testing.T) {
	old := struct {
		Round  int
		Global *wireParams
		Spec   *dimsHopsSpec
	}{
		Round:  7,
		Global: paramsToWire(specTestParams()),
		Spec: &dimsHopsSpec{
			SpecVersion: 1, Model: "fedomd",
			Features: 6, Classes: 3, Hidden: 8, HiddenLayers: 2,
			Dims: []int{6, 8, 3}, Dropout: 0.5, SpectralBound: true, Hops: 2,
			Dataset: "cora-like", Divisor: 4, DataSeed: 42,
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dims-hops.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("checkpoint with a Dims/Hops header refused: %v", err)
	}
	want := &ModelSpec{
		SpecVersion: 1, Model: "fedomd",
		Features: 6, Classes: 3, Hidden: 8, HiddenLayers: 2,
		Dropout: 0.5, SpectralBound: true,
		Dataset: "cora-like", Divisor: 4, DataSeed: 42,
	}
	if ck.Round != 7 || !reflect.DeepEqual(ck.Spec, want) {
		t.Fatalf("header fields lost: round %d spec %+v, want round 7 spec %+v", ck.Round, ck.Spec, want)
	}
	if _, err := ck.GlobalParams(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSpecRoundTrip pins the header through the file writer and
// loader, including GlobalParams on a header-only model checkpoint.
func TestCheckpointSpecRoundTrip(t *testing.T) {
	spec := &ModelSpec{
		SpecVersion: SpecVersion, Model: "fedomd",
		Features: 6, Classes: 3, Hidden: 8, HiddenLayers: 2,
		Dropout: 0.5, SpectralBound: true,
		Dataset: "cora-like", Divisor: 4, DataSeed: 42,
	}
	ck := NewModelCheckpoint(3, specTestParams(), spec)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := FileCheckpointer(path)(ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, spec) {
		t.Fatalf("spec did not round-trip:\nwrote %+v\nread  %+v", spec, got.Spec)
	}
	p, err := got.GlobalParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Get("b").At(0, 1) != 0.25 {
		t.Fatalf("model params corrupted: %v", p.Get("b").Data())
	}
}

// TestRunStampsSpecOntoCheckpoints covers the Config→snapshot plumbing.
func TestRunStampsSpecOntoCheckpoints(t *testing.T) {
	var snap *Checkpoint
	cfg := Config{Rounds: 2, CheckpointEvery: 2,
		Spec:             &ModelSpec{SpecVersion: SpecVersion, Model: "fedomd", Hidden: 16},
		CheckpointWriter: func(ck *Checkpoint) error { snap = ck; return nil }}
	if _, err := Run(cfg, []Client{newFakeClient("a", 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Spec == nil {
		t.Fatal("run with Config.Spec wrote a spec-less checkpoint")
	}
	if snap.Spec.Model != "fedomd" || snap.Spec.Hidden != 16 {
		t.Fatalf("wrong spec on checkpoint: %+v", snap.Spec)
	}
}

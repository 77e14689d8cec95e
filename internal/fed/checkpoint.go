package fed

// checkpoint.go implements server-side checkpoint/resume: a gob snapshot of
// the coordinator's state — next round, global model, sampler position,
// history, best-so-far tracking, and failure-policy bookkeeping — taken
// every Config.CheckpointEvery rounds through Config.CheckpointWriter. A
// killed run resumed from its last snapshot over the same client fleet
// replays into the same Result as an uninterrupted run (client-side
// optimizer state is owned by the parties and is not part of the snapshot).

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"fedomd/internal/nn"
)

// SpecVersion is the current model-config header version written into
// Checkpoint.Spec. Bump it when ModelSpec changes incompatibly; readers use
// it to decide how to interpret older headers.
const SpecVersion = 1

// ModelSpec is the versioned model-config header of a checkpoint: enough
// identity and hyperparameter information to reconstruct the model the
// snapshot's parameters belong to without the training process that wrote
// it — the contract the serving plane (internal/serve, cmd/fedomdserve)
// loads models through. Pre-header snapshots decode with a nil Spec (gob
// ignores absent fields), which LoadCheckpointFile-era readers must treat
// as "architecture unknown, caller supplies it".
type ModelSpec struct {
	// SpecVersion is the header format version (SpecVersion at write time).
	SpecVersion int
	// Model is the architecture kind. The serving plane builds only
	// "fedomd", the paper's OrthoGCN, the one model a trainer writes.
	Model string
	// Features and Classes are the input and output widths.
	Features, Classes int
	// Hidden and HiddenLayers shape the OrthoGCN.
	Hidden, HiddenLayers int
	// Dropout is recorded for exact reconstruction; inference ignores it.
	Dropout float64
	// SpectralBound mirrors OrthoGCN's Q̃ = Q/‖Q‖ forward bounding.
	SpectralBound bool
	// Dataset, Divisor and DataSeed name the dataset recipe the model was
	// trained against, so a server can regenerate the graph the node IDs
	// index into. Empty/zero when the caller served its own graph.
	Dataset  string
	Divisor  int
	DataSeed int64
}

// Checkpoint is a gob-serializable snapshot of the coordinator's state,
// taken after a completed round.
type Checkpoint struct {
	// Round is the next round to execute on resume.
	Round int
	// SamplerDraws counts the partial-participation permutations drawn so
	// far; resume replays them to restore the sampler stream.
	SamplerDraws int
	// Global is the aggregated global model entering Round.
	Global *wireParams
	// Spec is the versioned model-config header (nil on snapshots written
	// before the header existed, or when Config.Spec was not set).
	Spec *ModelSpec
	// History and the best-so-far tracking mirror the Result fields.
	History        []RoundStats
	BestValAcc     float64
	TestAtBestVal  float64
	BestRound      int
	BadRounds      int
	TotalBytesUp   int64
	TotalBytesDown int64
	// Failure-policy state, keyed by client name so a resumed fleet may be
	// constructed in a different order.
	Failures     map[string]int
	Strikes      map[string]int
	BenchedUntil map[string]int
	BenchCount   map[string]int

	// Async buffered-aggregation state (Aggregation == AggAsync; nil/empty
	// otherwise). The staleness clock is Round itself: an update's applied
	// staleness at fold time is fold round minus its DispatchRound, both of
	// which resume exactly. AsyncBuffer holds the updates that had arrived
	// but not folded, in arrival order; jobs still executing when the
	// snapshot was taken are lost like any crash and are redispatched on
	// resume. AsyncDispatch records the last dispatch round per party, and
	// the AsyncMeans/AsyncCentral/AsyncAux triple is the statistics state
	// dispatches carry.
	AsyncBuffer   []AsyncBufferedUpdate
	AsyncDispatch map[string]int
	AsyncMeans    []wireDense
	AsyncCentral  [][]wireDense
	AsyncAux      *wireParams
}

// AsyncBufferedUpdate is the wire form of one arrived-but-unfolded async
// update (see async.go's asyncUpdate).
type AsyncBufferedUpdate struct {
	Party         string
	DispatchRound int
	Loss          float64
	Params        *wireParams
	Means         []wireDense
	Count         int
	Moms          [][]wireDense
	Aux           *wireParams
	TrainSecs     float64
}

// snapshot captures the coordinator state entering round nextRound.
func (st *runState) snapshot(nextRound, samplerDraws int, global *nn.Params, res *Result, badRounds int) *Checkpoint {
	ck := &Checkpoint{
		Round:          nextRound,
		SamplerDraws:   samplerDraws,
		Global:         paramsToWire(global),
		Spec:           st.spec,
		History:        append([]RoundStats(nil), res.History...),
		BestValAcc:     res.BestValAcc,
		TestAtBestVal:  res.TestAtBestVal,
		BestRound:      res.BestRound,
		BadRounds:      badRounds,
		TotalBytesUp:   res.TotalBytesUp,
		TotalBytesDown: res.TotalBytesDown,
	}
	if len(st.failures) > 0 {
		ck.Failures = make(map[string]int, len(st.failures))
		for name, n := range st.failures {
			ck.Failures[name] = n
		}
	}
	if st.policy == Quarantine {
		ck.Strikes = make(map[string]int)
		ck.BenchedUntil = make(map[string]int)
		ck.BenchCount = make(map[string]int)
		for i, c := range st.clients {
			if st.strikes[i] != 0 {
				ck.Strikes[c.Name()] = st.strikes[i]
			}
			if st.benchedUntil[i] != 0 {
				ck.BenchedUntil[c.Name()] = st.benchedUntil[i]
			}
			if st.benchCount[i] != 0 {
				ck.BenchCount[c.Name()] = st.benchCount[i]
			}
		}
	}
	return ck
}

// restore rebuilds the coordinator state from a checkpoint, returning the
// global model to enter ck.Round with. The caller replays the sampler.
func (st *runState) restore(ck *Checkpoint, res *Result, badRounds, startRound, samplerDraws *int) (*nn.Params, error) {
	if ck.Global == nil {
		return nil, errors.New("fed: resume checkpoint has no global model")
	}
	if ck.Round < 0 {
		return nil, fmt.Errorf("fed: resume checkpoint has negative round %d", ck.Round)
	}
	global := paramsFromWire(ck.Global)
	if err := st.clients[0].Params().Compatible(global); err != nil {
		return nil, fmt.Errorf("fed: resume: checkpointed model incompatible with fleet: %w", err)
	}
	*startRound = ck.Round
	*samplerDraws = ck.SamplerDraws
	*badRounds = ck.BadRounds
	res.History = append([]RoundStats(nil), ck.History...)
	res.BestValAcc = ck.BestValAcc
	res.TestAtBestVal = ck.TestAtBestVal
	res.BestRound = ck.BestRound
	res.TotalBytesUp = ck.TotalBytesUp
	res.TotalBytesDown = ck.TotalBytesDown
	byName := make(map[string]int, len(st.clients))
	for i, c := range st.clients {
		byName[c.Name()] = i
	}
	for name, n := range ck.Failures {
		if _, known := byName[name]; known {
			if st.failures == nil {
				st.failures = make(map[string]int)
			}
			st.failures[name] = n
		}
	}
	restoreInto := func(dst []int, src map[string]int) {
		for name, v := range src {
			if i, known := byName[name]; known {
				dst[i] = v
			}
		}
	}
	restoreInto(st.strikes, ck.Strikes)
	restoreInto(st.benchedUntil, ck.BenchedUntil)
	restoreInto(st.benchCount, ck.BenchCount)
	return global, nil
}

// snapshotInto adds the async engine's state to a base checkpoint: the
// buffer, the per-party dispatch rounds, and the statistics state.
func (eng *asyncEngine) snapshotInto(ck *Checkpoint) {
	for _, u := range eng.buffer {
		w := AsyncBufferedUpdate{
			Party:         eng.st.clients[u.party].Name(),
			DispatchRound: u.dispatch,
			Loss:          u.loss,
			Params:        paramsToWire(u.params),
			Count:         u.count,
			TrainSecs:     u.trainSecs,
		}
		if u.means != nil {
			w.Means = vecsToWire(u.means)
		}
		for _, layer := range u.moms {
			w.Moms = append(w.Moms, vecsToWire(layer))
		}
		if u.aux != nil {
			w.Aux = paramsToWire(u.aux)
		}
		ck.AsyncBuffer = append(ck.AsyncBuffer, w)
	}
	ck.AsyncDispatch = make(map[string]int)
	for i, r := range eng.lastDispatch {
		if r >= 0 {
			ck.AsyncDispatch[eng.st.clients[i].Name()] = r
		}
	}
	if eng.stats.means != nil {
		ck.AsyncMeans = vecsToWire(eng.stats.means)
	}
	for _, layer := range eng.stats.central {
		ck.AsyncCentral = append(ck.AsyncCentral, vecsToWire(layer))
	}
	if eng.stats.aux != nil {
		ck.AsyncAux = paramsToWire(eng.stats.aux)
	}
}

// restore rebuilds the async engine's state from a checkpoint. Buffered
// updates from parties unknown to the resumed fleet are dropped; restored
// parameter sets are fresh allocations, never pooled.
func (eng *asyncEngine) restore(ck *Checkpoint) error {
	byName := make(map[string]int, len(eng.st.clients))
	for i, c := range eng.st.clients {
		byName[c.Name()] = i
	}
	for _, w := range ck.AsyncBuffer {
		i, known := byName[w.Party]
		if !known {
			continue
		}
		if w.Params == nil {
			return fmt.Errorf("fed: resume: buffered update from %s has no params", w.Party)
		}
		u := &asyncUpdate{
			party:     i,
			dispatch:  w.DispatchRound,
			loss:      w.Loss,
			params:    paramsFromWire(w.Params),
			encBytes:  -1,
			count:     w.Count,
			trainSecs: w.TrainSecs,
		}
		if w.Means != nil {
			u.means = vecsFromWire(w.Means)
		}
		for _, layer := range w.Moms {
			u.moms = append(u.moms, vecsFromWire(layer))
		}
		if w.Aux != nil {
			u.aux = paramsFromWire(w.Aux)
		}
		eng.buffer = append(eng.buffer, u)
	}
	for name, r := range ck.AsyncDispatch {
		if i, known := byName[name]; known {
			eng.lastDispatch[i] = r
		}
	}
	if ck.AsyncMeans != nil {
		eng.stats.means = vecsFromWire(ck.AsyncMeans)
	}
	for _, layer := range ck.AsyncCentral {
		eng.stats.central = append(eng.stats.central, vecsFromWire(layer))
	}
	if ck.AsyncAux != nil {
		eng.stats.aux = paramsFromWire(ck.AsyncAux)
	}
	return nil
}

// FileCheckpointer returns a CheckpointWriter that persists each snapshot to
// path with a write-to-temp-then-rename, so a crash mid-write never
// corrupts the previous good checkpoint.
func FileCheckpointer(path string) func(*Checkpoint) error {
	return func(ck *Checkpoint) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			return fmt.Errorf("encoding checkpoint: %w", err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
}

// GlobalParams reconstructs the checkpointed global model parameters as a
// fresh (never pooled) parameter set — the serving plane's entry point.
func (ck *Checkpoint) GlobalParams() (*nn.Params, error) {
	if ck.Global == nil {
		return nil, errors.New("fed: checkpoint has no global model")
	}
	return paramsFromWire(ck.Global), nil
}

// NewModelCheckpoint builds a minimal checkpoint carrying just a model and
// its config header — what a serving test or bench needs to exercise the
// load/swap path without a training run. The wire form aliases the params'
// backing arrays (like every snapshot), so encode the checkpoint before
// mutating them.
func NewModelCheckpoint(round int, global *nn.Params, spec *ModelSpec) *Checkpoint {
	return &Checkpoint{Round: round, Global: paramsToWire(global), Spec: spec}
}

// LoadCheckpointFile reads a checkpoint written by FileCheckpointer.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("fed: reading checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

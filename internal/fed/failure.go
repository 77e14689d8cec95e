package fed

// failure.go implements the runtime's fault tolerance: failure policies
// (fail-fast, drop-round, quarantine), per-call client timeouts, quorum
// guards, and the per-round/per-client failure accounting that Run threads
// through RoundStats and Result. The synchronous protocol of Algorithm 1 is
// preserved — a failed party is simply excluded from the round's cohort, and
// every aggregation (FedAvg weights, means, central moments, aux state)
// renormalizes over the survivors.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// FailurePolicy selects how Run reacts when a client call errors, times out,
// or uploads non-finite values.
type FailurePolicy int

const (
	// FailFast aborts the run on the first client failure — the zero value,
	// byte-for-byte the historical behavior.
	FailFast FailurePolicy = iota
	// DropRound excludes a failing party from the remainder of the round:
	// its weights, moments, and aux state are left out of every aggregation,
	// which renormalizes over the survivors. The party is retried next round.
	DropRound
	// Quarantine is DropRound plus strike accounting: a party failing
	// MaxStrikes consecutive rounds is benched and probed for re-admission
	// after an exponentially growing cool-down.
	Quarantine
)

// String returns the flag-friendly name of the policy.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case DropRound:
		return "droparound"
	case Quarantine:
		return "quarantine"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// ParseFailurePolicy maps a flag value to a policy, accepting hyphenated and
// underscored spellings case-insensitively ("drop-round", "FailFast", …).
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	norm := strings.ToLower(strings.NewReplacer("-", "", "_", "").Replace(s))
	switch norm {
	case "failfast":
		return FailFast, nil
	case "droparound", "dropround", "drop":
		return DropRound, nil
	case "quarantine":
		return Quarantine, nil
	}
	return FailFast, fmt.Errorf("fed: unknown failure policy %q (want failfast, droparound, or quarantine)", s)
}

// QuorumPolicy selects what happens when fewer than MinClients parties
// survive a round.
type QuorumPolicy int

const (
	// QuorumAbort ends the run with an error wrapping ErrQuorumLost — the
	// zero value.
	QuorumAbort QuorumPolicy = iota
	// QuorumSkip abandons the round's aggregation (the previous global model
	// is kept) and proceeds to the next round.
	QuorumSkip
)

// Sentinel errors surfaced by the fault-tolerant runtime; match with
// errors.Is.
var (
	// ErrQuorumLost reports that fewer than Config.MinClients parties
	// survived a round under QuorumAbort.
	ErrQuorumLost = errors.New("quorum lost")
	// ErrClientTimeout reports a client call exceeding Config.ClientTimeout.
	ErrClientTimeout = errors.New("client call timed out")
	// ErrClientBusy reports a call to a client whose previous timed-out call
	// is still executing (the runtime never drives a client concurrently
	// with itself).
	ErrClientBusy = errors.New("client still busy with a timed-out call")
	// ErrNonFinite reports a client upload containing NaN or ±Inf values,
	// which would poison every model averaged with it.
	ErrNonFinite = errors.New("non-finite values in upload")
)

// runState carries what one run threads through its rounds: the fleet and
// its telemetry, the progress a checkpoint records, and the fault-tolerance
// bookkeeping.
type runState struct {
	cfg        *Config
	clients    []Client
	weights    []float64
	rec        telemetry.Recorder
	tr         *obs.Tracer
	spans      obs.Spans // times each phase into rec and tr at once
	allMoment  bool      // every client takes part in the statistics exchange
	evalEvery  int
	policy     FailurePolicy
	minClients int
	maxStrikes int
	cooldown   int

	// busy guards the "never call a client concurrently with itself"
	// contract across timeouts: a timed-out call may still be executing
	// when the next phase (or round) reaches the same client.
	busy []atomic.Bool

	// Quarantine accounting, indexed by client.
	strikes      []int // consecutive failed rounds
	benchedUntil []int // first round the benched party is probed again
	benchCount   []int // times benched; drives the exponential cool-down

	failures map[string]int // total failures per client name, lazily built

	// Uplink blob totals for the per-tier ratio gauge ratioKey; async
	// workers book them concurrently.
	ratioKey     string
	upMu         sync.Mutex
	upRaw, upEnc int64

	// Run progress, saved and restored by checkpoints.
	res          *Result
	sampler      *rand.Rand // partial-participation cohorts
	samplerDraws int
	badRounds    int // scored rounds since the last validation improvement

	// Per-round scratch, reset by beginRound.
	dropped      []bool
	touched      []bool
	droppedCount int
	quarantined  int
	nonFinite    int // non-finite screens tripped this round (health feed)
}

func newRunState(cfg *Config, clients []Client, weights []float64, rec telemetry.Recorder) *runState {
	st := &runState{
		cfg:          cfg,
		clients:      clients,
		weights:      weights,
		rec:          rec,
		tr:           cfg.Tracer,
		spans:        obs.NewSpans(rec, cfg.Tracer),
		allMoment:    true,
		evalEvery:    cfg.EvalEvery,
		policy:       cfg.Policy,
		minClients:   cfg.MinClients,
		maxStrikes:   cfg.MaxStrikes,
		cooldown:     cfg.CooldownRounds,
		busy:         make([]atomic.Bool, len(clients)),
		strikes:      make([]int, len(clients)),
		benchedUntil: make([]int, len(clients)),
		benchCount:   make([]int, len(clients)),
		dropped:      make([]bool, len(clients)),
		touched:      make([]bool, len(clients)),
		res:          &Result{BestRound: -1},
		sampler:      rand.New(rand.NewSource(cfg.SampleSeed)),
	}
	for _, c := range clients {
		if _, ok := c.(MomentClient); !ok {
			st.allMoment = false
		}
	}
	if cfg.Codec.Enabled() {
		st.clients = linkClients(clients, cfg.Codec, rec, st.tr)
		st.ratioKey = codec.MetricRatioPrefix + "/" + cfg.Codec.Name()
	}
	if st.evalEvery <= 0 {
		st.evalEvery = 1
	}
	if st.minClients < 1 {
		st.minClients = 1
	}
	if st.maxStrikes < 1 {
		st.maxStrikes = 3
	}
	if st.cooldown < 1 {
		st.cooldown = 1
	}
	return st
}

func (st *runState) beginRound() {
	for i := range st.dropped {
		st.dropped[i] = false
		st.touched[i] = false
	}
	st.droppedCount = 0
	st.quarantined = 0
	st.nonFinite = 0
}

// benched reports whether client i sits out the given round (Quarantine
// cool-down).
func (st *runState) benched(i, round int) bool {
	return st.policy == Quarantine && round < st.benchedUntil[i]
}

// reachable returns the indices of the clients eligible to participate in
// the round, in client order.
func (st *runState) reachable(round int) []int {
	idx := make([]int, 0, len(st.clients))
	for i := range st.clients {
		if !st.benched(i, round) {
			idx = append(idx, i)
		}
	}
	return idx
}

// aliveOf filters idx down to the clients not dropped so far this round.
func (st *runState) aliveOf(idx []int) []int {
	out := idx[:0:0]
	for _, i := range idx {
		if !st.dropped[i] {
			out = append(out, i)
		}
	}
	return out
}

// call invokes f — a closure around one client operation — under the
// configured per-call timeout. With no timeout it is a direct call. The
// closure must write its results to invocation-local variables the caller
// reads only when call returns nil: on timeout the abandoned goroutine may
// still be executing, and the busy flag keeps the next phase from driving
// the same client concurrently.
func (st *runState) call(i int, f func() error) error {
	if !st.busy[i].CompareAndSwap(false, true) {
		return fmt.Errorf("fed: client %s: %w", st.clients[i].Name(), ErrClientBusy)
	}
	if st.cfg.ClientTimeout <= 0 {
		err := f()
		st.busy[i].Store(false)
		return err
	}
	done := make(chan error, 1)
	go func() {
		err := f()
		st.busy[i].Store(false)
		done <- err
	}()
	timer := time.NewTimer(st.cfg.ClientTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("fed: client %s: %w after %v", st.clients[i].Name(), ErrClientTimeout, st.cfg.ClientTimeout)
	}
}

// fail records a client failure. Under FailFast it returns err so the caller
// aborts the run; under the tolerant policies it drops the party from the
// remainder of the round, tallies the failure, and returns nil.
func (st *runState) fail(i int, err error) error {
	st.touched[i] = true
	if errors.Is(err, ErrNonFinite) {
		st.nonFinite++
		st.rec.Count(MetricNonFiniteScreened, 1)
	}
	if st.policy == FailFast {
		return err
	}
	if st.failures == nil {
		st.failures = make(map[string]int)
	}
	st.failures[st.clients[i].Name()]++
	if !st.dropped[i] {
		st.dropped[i] = true
		st.droppedCount++
		st.rec.Count(MetricClientDropped, 1)
	}
	return nil
}

// quorum returns nil when n survivors satisfy MinClients, else an error
// wrapping ErrQuorumLost.
func (st *runState) quorum(round, n int) error {
	if n >= st.minClients {
		return nil
	}
	return fmt.Errorf("fed: round %d: %d of %d clients survive, need %d: %w",
		round, n, len(st.clients), st.minClients, ErrQuorumLost)
}

// endRound finalizes the round's failure accounting: degraded-round
// telemetry, and — under Quarantine — strike updates and benching. A party
// completing a round cleanly is fully rehabilitated; a benched party whose
// re-admission probe fails is re-benched immediately with a doubled
// cool-down (its strikes were not cleared by the bench).
func (st *runState) endRound(round int, stats *RoundStats) {
	stats.Dropped = st.droppedCount
	if st.droppedCount > 0 {
		stats.Degraded = true
		st.rec.Count(MetricRoundDegraded, 1)
	}
	if st.policy != Quarantine {
		return
	}
	for i := range st.clients {
		if !st.touched[i] {
			continue // benched or unsampled: strikes unchanged
		}
		if !st.dropped[i] {
			st.strikes[i] = 0
			st.benchCount[i] = 0
			continue
		}
		st.strikes[i]++
		if st.strikes[i] < st.maxStrikes {
			continue
		}
		st.benchCount[i]++
		shift := st.benchCount[i] - 1
		if shift > 16 {
			shift = 16 // cool-downs beyond 2^16 rounds are indistinguishable
		}
		st.benchedUntil[i] = round + 1 + st.cooldown<<shift
		st.quarantined++
		stats.Quarantined++
		st.rec.Count(MetricClientQuarantined, 1)
	}
}

// evaluate returns the sample-weighted validation/test accuracy over the
// indexed clients. Evaluation stays lenient — a failing or timed-out party
// contributes zero counts rather than dropping from the round — but the
// per-call timeout still bounds how long a hung party can stall it.
func (st *runState) evaluate(idx []int) (valAcc, testAcc float64) {
	type counts struct{ vc, vt, tc, tt int }
	results := make([]counts, len(idx))
	st.fanOut(idx, func(s, i int) error {
		c := st.clients[i]
		var r counts
		if err := st.call(i, func() error {
			r.vc, r.vt = c.EvalVal()
			r.tc, r.tt = c.EvalTest()
			return nil
		}); err == nil {
			results[s] = r
		}
		return nil
	})
	var vc, vt, tc, tt int
	for _, r := range results {
		vc += r.vc
		vt += r.vt
		tc += r.tc
		tt += r.tt
	}
	if vt > 0 {
		valAcc = float64(vc) / float64(vt)
	}
	if tt > 0 {
		testAcc = float64(tc) / float64(tt)
	}
	return valAcc, testAcc
}

// finiteVec reports whether every element of v is finite.
func finiteVec(v *mat.Dense) bool {
	for _, x := range v.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// finiteVecs screens a slice of vectors (per-layer means).
func finiteVecs(vs []*mat.Dense) bool {
	for _, v := range vs {
		if !finiteVec(v) {
			return false
		}
	}
	return true
}

// finiteMoms screens [layer][order] central moments.
func finiteMoms(ms [][]*mat.Dense) bool {
	for _, layer := range ms {
		if !finiteVecs(layer) {
			return false
		}
	}
	return true
}

// finiteParams screens a parameter set.
func finiteParams(p *nn.Params) bool {
	for i := 0; i < p.Len(); i++ {
		if !finiteVec(p.At(i)) {
			return false
		}
	}
	return true
}

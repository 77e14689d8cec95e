// Package fed implements the federated-learning simulation runtime: the
// synchronous FedAvg server of paper §3, concurrent local training of the M
// parties (each client trains in its own goroutine within a round), the
// 2-round mean/moment exchange of Algorithm 1, optional auxiliary-state
// aggregation (SCAFFOLD control variates), byte-level communication
// accounting, early stopping with patience, and fault tolerance (failure
// policies, per-call timeouts, quorum guards — see failure.go — and server
// checkpoint/resume, see checkpoint.go).
package fed

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// Client is one federated participant. Implementations own their local graph
// data and model and must be safe to drive from a single goroutine at a time
// (the server never calls a client concurrently with itself).
type Client interface {
	// Name identifies the client in logs and errors.
	Name() string
	// NumSamples is the FedAvg aggregation weight (local training-node count).
	NumSamples() int
	// Params exposes the live local parameter set; the server reads it after
	// local training to aggregate.
	Params() *nn.Params
	// SetParams overwrites the local model with the global weights. The
	// argument must not be retained past the call: the runtime may recycle
	// its backing buffers (all in-tree clients copy via Params.CopyFrom).
	SetParams(global *nn.Params) error
	// TrainLocal runs the negotiated local epochs for one round and returns
	// the final local training loss.
	TrainLocal(round int) (float64, error)
	// EvalVal and EvalTest return (correct, total) on the local masks.
	EvalVal() (int, int)
	EvalTest() (int, int)
}

// MomentClient is implemented by clients that participate in FedOMD's
// 2-round statistics exchange (Algorithm 1 lines 3-18). Layer indices run
// over the hidden representations Z^1..Z^{L-1}.
type MomentClient interface {
	Client
	// LocalMeans returns the per-layer hidden-feature means and the local
	// sample count (Algorithm 1 lines 3-8).
	LocalMeans() (means []*mat.Dense, n int, err error)
	// CentralAroundGlobal returns, per layer, the central moments of orders
	// 2..K computed around the received global means (lines 12-15).
	CentralAroundGlobal(globalMeans []*mat.Dense) (moms [][]*mat.Dense, n int, err error)
	// SetGlobalStats delivers the aggregated global statistics the client
	// uses in its CMD loss during TrainLocal (lines 16-18).
	SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense)
}

// AuxClient is implemented by clients exchanging auxiliary state beyond model
// weights; the server averages uploads with the same weights it averages
// parameters with (NumSamples, at least 1) and broadcasts the aggregate
// (SCAFFOLD's control variates use this).
type AuxClient interface {
	Client
	UploadAux() *nn.Params
	DownloadAux(global *nn.Params) error
}

// Config controls a federated run.
type Config struct {
	// Rounds is the maximum number of communication rounds (the paper's
	// "epoch" with communication interval 1).
	Rounds int
	// Patience stops training after this many rounds without a validation
	// improvement; 0 disables early stopping.
	Patience int
	// Sequential disables concurrent client training (ablation knob).
	Sequential bool
	// EvalEvery controls how often validation/test accuracy is measured;
	// 1 (default when 0) evaluates every round.
	EvalEvery int
	// ClientFraction selects ⌈fraction·M⌉ clients uniformly at random each
	// round to train and aggregate (standard FL partial participation).
	// 0 explicitly means full participation (every client trains every
	// round); otherwise the fraction must lie in (0, 1].
	ClientFraction float64
	// SampleSeed makes the per-round client sampling deterministic.
	SampleSeed int64
	// Recorder receives the run's telemetry: per-round per-phase spans
	// (broadcast, eval, moments, train, aux, aggregate), per-client
	// train-duration histograms, and communication counters. Nil disables
	// telemetry at zero cost.
	Recorder telemetry.Recorder
	// Codec selects the wire codec applied to parameter payloads (see
	// internal/codec): uploads travel encoded against the last broadcast
	// global and are decoded before aggregation, so lossy tiers affect the
	// aggregate exactly as a wire deployment would, and BytesUp/BytesDown
	// report encoded sizes. The zero value keeps the historical raw-float64
	// accounting. Statistics payloads (moments, aux) are not encoded.
	Codec codec.Options

	// Policy selects the failure-handling mode. The zero value, FailFast,
	// aborts the run on the first client error — the historical behavior.
	Policy FailurePolicy
	// ClientTimeout bounds every individual client call (broadcast, eval,
	// statistics, training, upload). An expired call counts as a failure
	// under the active Policy. 0 disables the bound: a hung party then
	// stalls the synchronous round forever.
	ClientTimeout time.Duration
	// MinClients is the quorum: the minimum number of parties that must
	// survive a round for its aggregation to happen. Values below 1 mean 1.
	MinClients int
	// QuorumPolicy selects between aborting the run (default) and skipping
	// the round's aggregation when quorum is lost.
	QuorumPolicy QuorumPolicy
	// MaxStrikes is the number of consecutive failed rounds after which
	// Quarantine benches a party (default 3 when unset).
	MaxStrikes int
	// CooldownRounds is the base bench duration under Quarantine (default
	// 1); it doubles on each re-bench of the same party.
	CooldownRounds int

	// RunID names the run in the Result and in distributed traces; empty
	// generates a fresh random ID so every run is correlatable offline.
	RunID string
	// Tracer emits distributed spans for the run: a root "fed/run" span,
	// per-round "fed/round" spans (published as the tracer's active context
	// so transport and codec spans parent under them), and per-party
	// train/upload spans. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Observer receives one obs.RoundObservation per finished round — the
	// feed for health monitors. Nil disables it.
	Observer obs.RoundObserver

	// CheckpointEvery snapshots the server state every N completed rounds
	// through CheckpointWriter; 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointWriter persists a snapshot (see FileCheckpointer for the
	// on-disk writer). A writer error aborts the run.
	CheckpointWriter func(*Checkpoint) error
	// Resume restarts a run from a snapshot taken by an identically
	// configured run over the same client fleet (see LoadCheckpointFile).
	Resume *Checkpoint
	// Spec describes the model architecture being trained so checkpoints
	// can be reconstructed standalone (see Checkpoint.Spec). Nil writes
	// header-less snapshots, matching the pre-spec format.
	Spec *ModelSpec

	// Aggregation selects the round topology. The zero value, AggSync, runs
	// barriered rounds — bit-identical to the historical behavior.
	// AggAsync is the buffered no-barrier mode of async.go: stragglers slow
	// only themselves, and their late updates fold into later rounds with a
	// staleness-discounted weight.
	Aggregation AggregationMode
	// BufferK is the number of arrivals folded per logical round in async
	// mode; 0 defaults to ⌈M/2⌉ over the fleet size M.
	BufferK int
	// MaxStaleness bounds, in logical rounds, how old a buffered update may
	// be at fold time before it is evicted; 0 defaults to 8. Negative
	// values are rejected.
	MaxStaleness int
	// StalenessAlpha is the exponent α of the staleness discount
	// w_i/(1+s)^α applied to every folded quantity; 0 defaults to 1.
	StalenessAlpha float64
	// BufferTimeout bounds how long an async logical round waits for its
	// buffer to reach BufferK before folding whatever arrived (the round is
	// then marked stalled for the health plane). 0 waits until the buffer
	// fills or no dispatched update can arrive anymore.
	BufferTimeout time.Duration
}

// Telemetry metric names emitted by Run. Phase spans are histograms of
// per-round durations in seconds; bytes are monotonic counters.
const (
	MetricRoundSeconds     = "fed/round_seconds"
	MetricBroadcastSeconds = "fed/phase/broadcast_seconds"
	MetricEvalSeconds      = "fed/phase/eval_seconds"
	MetricMomentsSeconds   = "fed/phase/moments_seconds"
	MetricTrainSeconds     = "fed/phase/train_seconds"
	MetricAuxSeconds       = "fed/phase/aux_seconds"
	MetricAggregateSeconds = "fed/phase/aggregate_seconds"
	MetricFinalEvalSeconds = "fed/phase/final_eval_seconds"
	MetricClientTrainSecs  = "fed/client/train_seconds"
	MetricBytesUp          = "fed/bytes_up"
	MetricBytesDown        = "fed/bytes_down"
	MetricRounds           = "fed/rounds"
	MetricActiveClients    = "fed/active_clients"
	MetricValAcc           = "fed/val_acc"
	MetricTestAcc          = "fed/test_acc"
	// Fault-tolerance counters (see failure.go).
	MetricClientDropped     = "fed/client_dropped"
	MetricClientQuarantined = "fed/client_quarantined"
	MetricRoundDegraded     = "fed/round_degraded"
	// MetricNonFiniteScreened counts uploads rejected by the non-finite
	// screen (the health monitor's non_finite rule watches the same events).
	MetricNonFiniteScreened = "fed/non_finite_screened"
	// Async buffered-aggregation telemetry (async.go). Dispatched counts
	// jobs handed to workers; folded/carried/evicted/rejected partition the
	// fates of buffered updates; staleness is a histogram of the applied
	// staleness of folded updates; buffer-wait is the per-round collect
	// latency; stalls counts rounds whose buffer missed K at the deadline.
	MetricAsyncDispatched = "fed/async_dispatched"
	MetricAsyncFolded     = "fed/async_folded"
	MetricAsyncCarried    = "fed/async_carried"
	MetricAsyncEvicted    = "fed/async_evicted"
	MetricAsyncRejected   = "fed/async_rejected"
	MetricAsyncStaleness  = "fed/async_staleness"
	MetricAsyncBufferWait = "fed/async_buffer_wait_seconds"
	MetricAsyncStalls     = "fed/async_stalls"
)

// RoundStats is one row of the training history (Figure 5 data).
type RoundStats struct {
	Round     int
	TrainLoss float64
	ValAcc    float64
	TestAcc   float64
	BytesUp   int64
	BytesDown int64
	// Start and End are the round's wall-clock bounds, for correlating
	// history rows with trace spans from other processes.
	Start, End time.Time
	// Dropped counts parties excluded from this round by the failure
	// policy; Quarantined counts parties benched at its end.
	Dropped     int
	Quarantined int
	// Degraded marks a round that lost at least one party or skipped its
	// aggregation on lost quorum.
	Degraded bool
}

// Result summarises a run.
type Result struct {
	// RunID is the (possibly generated) run identifier; it matches the
	// JSONL trace header so results and traces correlate offline.
	RunID string
	// Start and End are the run's wall-clock bounds.
	Start, End time.Time

	History []RoundStats
	// BestValAcc is the best validation accuracy seen and TestAtBestVal the
	// test accuracy at that round — the reported metric. The final
	// aggregate is scored too: BestRound equals the round count when the
	// final model wins.
	BestValAcc    float64
	TestAtBestVal float64
	BestRound     int
	// FinalValAcc and FinalTestAcc score the last aggregated global model
	// (the one in FinalParams), measured after the round loop.
	FinalValAcc  float64
	FinalTestAcc float64
	// FinalParams is the last aggregated global model.
	FinalParams                  *nn.Params
	TotalBytesUp, TotalBytesDown int64
	// ClientFailures tallies failures per client name over the whole run
	// (nil when no failures were tolerated).
	ClientFailures map[string]int
}

// Run executes federated training over the clients, in barriered rounds
// (AggSync) or in buffered no-barrier rounds (AggAsync, see async.go). All
// clients must be non-nil; if every client implements MomentClient the
// FedOMD statistics exchange runs each round before local training.
//
// Run holds the one round loop: each round's prologue and epilogue, the
// abort and quorum-skip handling, the history, counters and observer feed,
// checkpointing, patience and the final score are shared, and only the
// middle of the round depends on the schedule.
func Run(cfg Config, clients []Client) (*Result, error) {
	if len(clients) == 0 {
		return nil, errors.New("fed: no clients")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: Rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.ClientFraction < 0 || cfg.ClientFraction > 1 {
		return nil, fmt.Errorf("fed: ClientFraction must be 0 (full participation) or in (0, 1], got %v", cfg.ClientFraction)
	}
	if cfg.Policy < FailFast || cfg.Policy > Quarantine {
		return nil, fmt.Errorf("fed: unknown failure policy %d", int(cfg.Policy))
	}
	if err := cfg.Codec.Validate(); err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if cfg.Aggregation < AggSync || cfg.Aggregation > AggAsync {
		return nil, fmt.Errorf("fed: unknown aggregation mode %d", int(cfg.Aggregation))
	}
	if cfg.BufferK < 0 || cfg.BufferK > len(clients) {
		return nil, fmt.Errorf("fed: BufferK must lie in [0, %d clients], got %d", len(clients), cfg.BufferK)
	}
	if cfg.MaxStaleness < 0 {
		return nil, fmt.Errorf("fed: MaxStaleness must be non-negative, got %d", cfg.MaxStaleness)
	}
	if cfg.StalenessAlpha < 0 {
		return nil, fmt.Errorf("fed: StalenessAlpha must be non-negative, got %v", cfg.StalenessAlpha)
	}
	for _, c := range clients {
		if c == nil {
			return nil, errors.New("fed: nil client")
		}
	}
	rec := telemetry.Or(cfg.Recorder)
	tr := cfg.Tracer
	runID := cfg.RunID
	if runID == "" {
		runID = obs.NewRunID()
	}
	weights := make([]float64, len(clients))
	for i, c := range clients {
		w := c.NumSamples()
		if w <= 0 {
			w = 1 // parties with no training nodes still average in weakly
		}
		weights[i] = float64(w)
	}
	st := newRunState(&cfg, clients, weights, rec)

	runSpan := tr.Root(obs.SpanRun)
	runSpan.SetAttr(obs.AttrRunID, runID)
	runSpan.SetAttr(obs.AttrRounds, cfg.Rounds)
	runSpan.SetAttr(obs.AttrParties, len(clients))
	runSpan.SetAttr(obs.AttrPolicy, cfg.Policy.String())
	runSpan.SetAttr(obs.AttrCodec, cfg.Codec.Name())
	// Publish the run span before the bootstrap parameter fetch so
	// pre-round work (the initial get_params, codec encodes outside any
	// round) anchors under fed/run rather than starting orphan traces.
	tr.SetActive(runSpan.Context())
	defer func() {
		tr.SetActive(obs.SpanContext{})
		runSpan.End()
	}()

	global := clients[0].Params().Clone()
	res := st.res
	res.RunID, res.Start = runID, time.Now()
	var eng *asyncEngine
	if cfg.Aggregation == AggAsync {
		eng = newAsyncEngine(st)
		runSpan.SetAttr(obs.AttrAggregation, AggAsync.String())
	}
	startRound := 0
	if cfg.Resume != nil {
		g, err := st.restore(cfg.Resume)
		if err != nil {
			return nil, err
		}
		if eng != nil {
			if err := eng.restore(cfg.Resume); err != nil {
				return nil, err
			}
		}
		global, startRound = g, cfg.Resume.Round
	}

	var runErr error
	for round := startRound; round < cfg.Rounds; round++ {
		stats := RoundStats{Round: round, Start: time.Now()}
		roundSpan := telemetry.StartSpan(rec, MetricRoundSeconds)
		rsp := tr.Start(runSpan.Context(), obs.SpanRound)
		rsp.SetAttr(obs.AttrRound, round)
		tr.SetActive(rsp.Context())
		resets0 := wireResets.Value()
		st.beginRound()

		var out roundOutcome
		var err error
		if eng != nil {
			err = eng.round(rsp.Context(), round, global, &stats, &out)
		} else {
			err = st.syncRound(rsp.Context(), round, global, &stats, &out)
		}
		if err != nil {
			if !errors.Is(err, ErrQuorumLost) || cfg.QuorumPolicy != QuorumSkip {
				// The run is aborting mid-round: emit the round's trace record
				// (partial rounds still belong in the trace tree) but drop its
				// latency sample — an aborted round is not a round-duration
				// observation.
				roundSpan.Cancel()
				rsp.End()
				runErr = err
				break
			}
			// QuorumSkip: abandon the round's aggregation, keep the
			// previous global model, and carry on.
			stats.Degraded = true
		}
		if out.global != nil {
			global = out.global
		}
		stats.TrainLoss = out.trainLoss

		st.endRound(round, &stats)
		stats.End = time.Now()
		roundSpan.End()
		rec.Count(MetricRounds, 1)
		rec.Count(MetricActiveClients, int64(out.active))
		rec.Count(MetricBytesUp, stats.BytesUp)
		rec.Count(MetricBytesDown, stats.BytesDown)

		res.History = append(res.History, stats)
		res.TotalBytesUp += stats.BytesUp
		res.TotalBytesDown += stats.BytesDown

		if cfg.Observer != nil {
			benchedNow := 0
			for i := range clients {
				if st.benched(i, round+1) {
					benchedNow++
				}
			}
			o := obs.RoundObservation{
				Round:       round,
				TrainLoss:   stats.TrainLoss,
				ValAcc:      stats.ValAcc,
				TestAcc:     stats.TestAcc,
				BestValAcc:  res.BestValAcc,
				Evaluated:   out.evaluated,
				Degraded:    stats.Degraded,
				Dropped:     stats.Dropped,
				Quarantined: benchedNow,
				NonFinite:   st.nonFinite,
				CodecResets: int(wireResets.Value() - resets0),
				BytesUp:     stats.BytesUp,
				BytesDown:   stats.BytesDown,
			}
			if eng != nil {
				o.Async = true
				o.BufferTarget = eng.k
				o.BufferFill = out.folded
				o.BufferStalled = out.stalled
				o.StalenessP99 = out.staleP99
				o.StalenessLimit = float64(eng.maxStale)
			}
			for _, p := range out.trained {
				o.Parties = append(o.Parties, obs.PartyObservation{
					Name:         clients[p.party].Name(),
					TrainSeconds: p.secs,
					Dropped:      st.dropped[p.party],
				})
			}
			cfg.Observer.ObserveRound(rsp.Context(), o)
		}
		rsp.End()

		if cfg.CheckpointEvery > 0 && cfg.CheckpointWriter != nil && (round+1)%cfg.CheckpointEvery == 0 {
			ck := st.snapshot(round+1, global)
			if eng != nil {
				eng.snapshotInto(ck)
			}
			if err := cfg.CheckpointWriter(ck); err != nil {
				runErr = fmt.Errorf("fed: checkpoint after round %d: %w", round, err)
				break
			}
		}
		if cfg.Patience > 0 && st.badRounds >= cfg.Patience {
			break
		}
	}
	if eng != nil {
		// Reap the in-flight workers on every way out of the loop: no
		// goroutine outlives the run, and the final broadcast below finds
		// every party idle.
		eng.shutdown()
	}
	if runErr != nil {
		return nil, runErr
	}
	res.FinalParams = global
	res.ClientFailures = st.failures

	// The final broadcast runs outside every round: anchor its RPC and codec
	// spans under fed/run, not the last fed/round.
	tr.SetActive(runSpan.Context())
	if err := st.finalScore(global); err != nil {
		return nil, err
	}
	res.End = time.Now()
	return res, nil
}

// roundOutcome is what the middle of a round, sync or async, hands the
// shared epilogue. A middle fills it as it goes, so a round skipped on lost
// quorum still reports what it got done.
type roundOutcome struct {
	global    *nn.Params // the new global model; nil keeps the previous one
	trainLoss float64
	evaluated bool
	active    int       // parties counted by MetricActiveClients
	trained   []trained // per-party training, for the observer feed
	// Async only: how many updates the fold took, their staleness p99, and
	// whether the collect deadline expired before the buffer filled.
	folded   int
	staleP99 float64
	stalled  bool
}

// trained is one party's local training in a round.
type trained struct {
	party int
	secs  float64
}

// syncRound is the middle of a barriered round (Algorithm 1): broadcast to
// every reachable party, score the broadcast model, exchange statistics,
// train, exchange aux state, and aggregate over the surviving cohort.
func (st *runState) syncRound(parent obs.SpanContext, round int, global *nn.Params, stats *RoundStats, out *roundOutcome) error {
	reach := st.reachable(round)
	activeIdx := st.cohort(round, reach)
	out.active = len(activeIdx)
	if err := st.quorum(round, len(reach)); err != nil {
		return err
	}
	// Broadcast global weights (Phase 1/3 of §3) to every reachable client.
	if err := st.broadcast(parent, reach, global, stats); err != nil {
		return err
	}
	if err := st.quorum(round, len(st.aliveOf(activeIdx))); err != nil {
		return err
	}
	if st.evalDue(round) {
		st.score(parent, round, st.aliveOf(reach), stats)
		out.evaluated = true
	}
	// FedOMD statistics exchange (Algorithm 1 lines 3-18), over the round's
	// active cohort.
	if st.allMoment {
		if _, _, err := st.momentExchange(parent, round, st.aliveOf(activeIdx), stats); err != nil {
			return err
		}
	}
	if err := st.train(parent, round, st.aliveOf(activeIdx), out); err != nil {
		return err
	}
	// Auxiliary state aggregation (e.g. SCAFFOLD control variates).
	sp := telemetry.StartSpan(st.rec, MetricAuxSeconds)
	err := st.auxExchange(st.aliveOf(activeIdx), stats)
	sp.End()
	if err != nil {
		return err
	}
	out.global, err = st.aggregate(parent, round, st.aliveOf(activeIdx), global, stats)
	return err
}

// cohort returns the round's active parties: every reachable one, or under
// partial participation the first ⌈fraction·M⌉ unbenched parties of a fresh
// permutation (identical to the historical perm[:k] when nothing is
// benched), in client order.
func (st *runState) cohort(round int, reach []int) []int {
	f := st.cfg.ClientFraction
	if f <= 0 || f >= 1 {
		return reach
	}
	k := ceilFraction(f, len(st.clients))
	perm := st.sampler.Perm(len(st.clients))
	st.samplerDraws++
	sel := make([]int, 0, k)
	for _, idx := range perm {
		if st.benched(idx, round) {
			continue
		}
		sel = append(sel, idx)
		if len(sel) == k {
			break
		}
	}
	sort.Ints(sel)
	return sel
}

// broadcast installs global on every indexed party and charges the
// download; a party that cannot take it goes to the failure policy.
func (st *runState) broadcast(parent obs.SpanContext, idx []int, global *nn.Params, stats *RoundStats) error {
	sp := telemetry.StartSpan(st.rec, MetricBroadcastSeconds)
	defer sp.End()
	osp := st.tr.Start(parent, obs.SpanBroadcast)
	defer osp.End()
	for _, i := range idx {
		c := st.clients[i]
		st.touched[i] = true
		if err := st.call(i, func() error { return c.SetParams(global) }); err != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: broadcast to %s: %w", c.Name(), err)); ferr != nil {
				return ferr
			}
			continue
		}
		if st.cs != nil && !transportCoded(c) {
			n, err := st.cs.broadcast(i, global)
			if err != nil {
				return err
			}
			stats.BytesDown += n
		} else {
			stats.BytesDown += int64(global.Bytes())
		}
	}
	return nil
}

// evalDue reports whether the round scores its global model.
func (st *runState) evalDue(round int) bool {
	return round%st.evalEvery == 0 || round == st.cfg.Rounds-1
}

// score evaluates the global model the indexed parties hold, reports the
// accuracies, and keeps the best-validation bookkeeping.
func (st *runState) score(parent obs.SpanContext, round int, idx []int, stats *RoundStats) {
	sp := telemetry.StartSpan(st.rec, MetricEvalSeconds)
	osp := st.tr.Start(parent, obs.SpanEval)
	stats.ValAcc, stats.TestAcc = st.evaluate(idx, st.cfg.Sequential)
	sp.End()
	osp.End()
	st.rec.Gauge(MetricValAcc, stats.ValAcc)
	st.rec.Gauge(MetricTestAcc, stats.TestAcc)
	st.noteBest(round, stats.ValAcc, stats.TestAcc)
}

// noteBest records a round's validation score: a new best (or the first
// score) becomes the reported result and resets the patience count, any
// other score adds to it.
func (st *runState) noteBest(round int, val, test float64) {
	if val > st.res.BestValAcc || st.res.BestRound < 0 {
		st.res.BestValAcc, st.res.TestAtBestVal, st.res.BestRound = val, test, round
		st.badRounds = 0
	} else {
		st.badRounds++
	}
}

// train runs local training concurrently across the indexed parties and
// records the sample-weighted training loss over those that survive.
func (st *runState) train(parent obs.SpanContext, round int, idx []int, out *roundOutcome) error {
	sp := telemetry.StartSpan(st.rec, MetricTrainSeconds)
	osp := st.tr.Start(parent, obs.SpanTrain)
	losses := make([]float64, len(idx))
	out.trained = make([]trained, len(idx))
	for s, i := range idx {
		out.trained[s].party = i
	}
	sub := st.clientsAt(idx)
	errs := forEachClient(sub, st.cfg.Sequential, st.policy == FailFast, func(s int, c Client) error {
		clientSpan := telemetry.StartSpan(st.rec, MetricClientTrainSecs)
		tsp := st.tr.Start(parent, obs.SpanClientTrain)
		tsp.SetAttr(obs.AttrParty, c.Name())
		t0 := time.Now()
		var loss float64
		err := st.call(idx[s], func() error {
			l, e := c.TrainLocal(round)
			loss = l
			return e
		})
		out.trained[s].secs = time.Since(t0).Seconds()
		tsp.End()
		if err != nil {
			// A failed call is no training-latency sample (a timed-out one
			// would book the whole timeout).
			clientSpan.Cancel()
			return fmt.Errorf("fed: client %s round %d: %w", c.Name(), round, err)
		}
		clientSpan.End()
		losses[s] = loss
		return nil
	})
	sp.End()
	osp.End()
	if st.policy == FailFast {
		if err := collapseErrs(errs, st.cfg.Sequential || len(sub) == 1); err != nil {
			return err
		}
	} else {
		for s, e := range errs {
			if e != nil {
				_ = st.fail(idx[s], e)
			}
		}
	}
	var lossSum, wSum float64
	for s, i := range idx {
		if st.dropped[i] {
			continue
		}
		lossSum += st.weights[i] * losses[s]
		wSum += st.weights[i]
	}
	if wSum > 0 {
		out.trainLoss = lossSum / wSum
	}
	return nil
}

// aggregate collects the indexed parties' uploads and averages them (eq. 2 /
// Algorithm 1 lines 26-29) over the survivors; nn.Average renormalizes their
// weights.
func (st *runState) aggregate(parent obs.SpanContext, round int, idx []int, global *nn.Params, stats *RoundStats) (*nn.Params, error) {
	sp := telemetry.StartSpan(st.rec, MetricAggregateSeconds)
	defer sp.End()
	osp := st.tr.Start(parent, obs.SpanAggregate)
	defer osp.End()
	sets := make([]*nn.Params, 0, len(idx))
	aggWeights := make([]float64, 0, len(idx))
	// Decoded uploads borrow pooled matrices; they are consumed by
	// nn.Average (which writes a fresh aggregate), so release them when the
	// phase ends, on success and error paths alike.
	var pooled []*nn.Params
	defer func() {
		for _, p := range pooled {
			codec.PutParams(p)
		}
	}()
	for _, i := range idx {
		c := st.clients[i]
		usp := st.tr.Start(parent, obs.SpanClientUpload)
		usp.SetAttr(obs.AttrParty, c.Name())
		var p *nn.Params
		err := st.call(i, func() error { p = c.Params(); return nil })
		var encBytes int64 = -1
		if err == nil && st.cs != nil && !transportCoded(c) {
			// Round-trip the upload through the codec: the server
			// aggregates what the wire delivers, so lossy tiers shape the
			// aggregate here exactly as in deployment.
			var dec *nn.Params
			dec, encBytes, err = st.cs.upload(i, p)
			if err == nil {
				p = dec
				pooled = append(pooled, dec)
			}
		}
		if err == nil && !finiteParams(p) {
			err = ErrNonFinite
		}
		if err == nil && st.policy != FailFast {
			// Screen shape mismatches per client so one bad upload cannot
			// abort the whole aggregation. FailFast keeps the historical
			// aggregate-time error below.
			err = global.Compatible(p)
		}
		if err != nil {
			usp.SetAttr(obs.AttrErr, err.Error())
			usp.End()
			if ferr := st.fail(i, fmt.Errorf("fed: upload from %s: %w", c.Name(), err)); ferr != nil {
				return nil, ferr
			}
			continue
		}
		sets = append(sets, p)
		aggWeights = append(aggWeights, st.weights[i])
		if encBytes >= 0 {
			stats.BytesUp += encBytes
			usp.SetAttr(obs.AttrBytesEnc, encBytes)
		} else {
			stats.BytesUp += int64(p.Bytes())
		}
		usp.End()
	}
	if err := st.quorum(round, len(sets)); err != nil {
		return nil, err
	}
	agg, err := nn.Average(sets, aggWeights)
	if err != nil {
		return nil, fmt.Errorf("fed: aggregation: %w", err)
	}
	return agg, nil
}

// finalScore installs and scores the last aggregated global model: the last
// nn.Average output was never installed or evaluated inside the round loop,
// so without this pass the best model could silently be missed. It is a
// scoring pass outside the round accounting — no history row, no byte
// counters.
func (st *runState) finalScore(global *nn.Params) error {
	res := st.res
	sp := telemetry.StartSpan(st.rec, MetricFinalEvalSeconds)
	finalIdx := make([]int, 0, len(st.clients))
	for i := range st.clients {
		c := st.clients[i]
		if err := st.call(i, func() error { return c.SetParams(global) }); err != nil {
			if st.policy == FailFast {
				sp.End()
				return fmt.Errorf("fed: final broadcast to %s: %w", c.Name(), err)
			}
			continue // score the final model on the parties that can hold it
		}
		finalIdx = append(finalIdx, i)
	}
	if len(finalIdx) > 0 {
		res.FinalValAcc, res.FinalTestAcc = st.evaluate(finalIdx, st.cfg.Sequential)
	}
	sp.End()
	if res.FinalValAcc > res.BestValAcc || res.BestRound < 0 {
		res.BestValAcc = res.FinalValAcc
		res.TestAtBestVal = res.FinalTestAcc
		res.BestRound = 0
		if n := len(res.History); n > 0 {
			res.BestRound = res.History[n-1].Round + 1
		}
	}
	return nil
}

// RunLocalOnly trains every client in isolation (the LocGCN baseline): no
// weight exchange, accuracy is the sample-weighted average of the local
// models, mirroring the paper's "averages the accuracy across various
// parties".
//
// It reads Rounds, Patience and Sequential, and refuses by name what it
// cannot honour: an enabled Codec, AggAsync, a Policy other than FailFast, a
// ClientTimeout, a partial ClientFraction, a CheckpointWriter or a Resume;
// the knobs those gate are then moot. The observability fields Recorder,
// Tracer, Observer and RunID, and EvalEvery, are left unused: a local-only
// run emits no telemetry and scores every round.
func RunLocalOnly(cfg Config, clients []Client) (*Result, error) {
	if len(clients) == 0 {
		return nil, errors.New("fed: no clients")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: Rounds must be positive, got %d", cfg.Rounds)
	}
	for _, f := range []struct {
		set   bool
		field string
	}{
		{cfg.Codec.Enabled(), "Codec"},
		{cfg.Aggregation != AggSync, "Aggregation"},
		{cfg.Policy != FailFast, "Policy"},
		{cfg.ClientTimeout != 0, "ClientTimeout"},
		{cfg.ClientFraction != 0 && cfg.ClientFraction != 1, "ClientFraction"},
		{cfg.CheckpointWriter != nil, "CheckpointWriter"},
		{cfg.Resume != nil, "Resume"},
	} {
		if f.set {
			return nil, fmt.Errorf("fed: a local-only run cannot honour %s", f.field)
		}
	}
	// A bare run state: it scores the clients and keeps the best round, with
	// no telemetry, tracing or codec.
	st := newRunState(&Config{}, clients, nil, telemetry.Or(nil))
	all := st.reachable(0) // every client: nothing is benched without a policy
	res := st.res
	for round := 0; round < cfg.Rounds; round++ {
		stats := RoundStats{Round: round}
		losses := make([]float64, len(clients))
		if err := collapseErrs(forEachClient(clients, cfg.Sequential, true, func(i int, c Client) error {
			loss, err := c.TrainLocal(round)
			if err != nil {
				return fmt.Errorf("fed: local client %s round %d: %w", c.Name(), round, err)
			}
			losses[i] = loss
			return nil
		}), cfg.Sequential || len(clients) == 1); err != nil {
			return nil, err
		}
		for _, l := range losses {
			stats.TrainLoss += l
		}
		stats.TrainLoss /= float64(len(clients))
		stats.ValAcc, stats.TestAcc = st.evaluate(all, cfg.Sequential)
		st.noteBest(round, stats.ValAcc, stats.TestAcc)
		res.History = append(res.History, stats)
		if cfg.Patience > 0 && st.badRounds >= cfg.Patience {
			break
		}
	}
	// Local-only training evaluates after every round, so the last row
	// already scores the final models.
	if n := len(res.History); n > 0 {
		res.FinalValAcc = res.History[n-1].ValAcc
		res.FinalTestAcc = res.History[n-1].TestAcc
	}
	res.FinalParams = clients[0].Params().Clone()
	return res, nil
}

// momentExchange runs Algorithm 1's two upload/download rounds over the
// indexed clients as one phase and installs the global statistics on the
// survivors. A party failing either stage — including a non-finite upload —
// is handled by the failure policy, and both aggregations renormalize over
// whoever is left. It charges the bytes moved to stats and returns the
// aggregated global statistics (nil when no party survived a stage) — the
// async engine bootstraps its stats state from one synchronous exchange;
// the sync round ignores them.
func (st *runState) momentExchange(parent obs.SpanContext, round int, idx []int, stats *RoundStats) ([]*mat.Dense, [][]*mat.Dense, error) {
	sp := telemetry.StartSpan(st.rec, MetricMomentsSeconds)
	defer sp.End()
	osp := st.tr.Start(parent, obs.SpanMoments)
	defer osp.End()
	m := len(idx)
	if m == 0 {
		return nil, nil, nil
	}
	allMeans := make([][]*mat.Dense, m) // [slot][layer]
	counts := make([]int, m)
	ok := make([]bool, m)
	for s, i := range idx {
		c := st.clients[i]
		mc := c.(MomentClient)
		var means []*mat.Dense
		var n int
		cerr := st.call(i, func() error {
			var e error
			means, n, e = mc.LocalMeans()
			return e
		})
		if cerr == nil && !finiteVecs(means) {
			cerr = ErrNonFinite
		}
		if cerr != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: means from %s: %w", c.Name(), cerr)); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		allMeans[s] = means
		counts[s] = n
		ok[s] = true
		stats.BytesUp += bytesOfVecs(means) + 8
	}
	layers := -1
	for s := range idx {
		if !ok[s] {
			continue
		}
		if layers < 0 {
			layers = len(allMeans[s])
			continue
		}
		if len(allMeans[s]) != layers {
			mismatch := fmt.Errorf("fed: client %s reports %d layers, want %d", st.clients[idx[s]].Name(), len(allMeans[s]), layers)
			if ferr := st.fail(idx[s], mismatch); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
		}
	}
	if layers < 0 {
		return nil, nil, nil // no party survived the first stage
	}
	globalMeans := make([]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		var layerMeans []*mat.Dense
		var cnt []int
		for s := range idx {
			if ok[s] {
				layerMeans = append(layerMeans, allMeans[s][l])
				cnt = append(cnt, counts[s])
			}
		}
		gm, err := moments.AggregateMeans(layerMeans, cnt)
		if err != nil {
			return nil, nil, fmt.Errorf("fed: aggregating layer %d means: %w", l, err)
		}
		globalMeans[l] = gm
	}
	// Download global means, upload moments centred on them.
	allMoms := make([][][]*mat.Dense, m) // [slot][layer][order]
	for s, i := range idx {
		if !ok[s] {
			continue
		}
		c := st.clients[i]
		mc := c.(MomentClient)
		stats.BytesDown += bytesOfVecs(globalMeans)
		var moms [][]*mat.Dense
		var n int
		cerr := st.call(i, func() error {
			var e error
			moms, n, e = mc.CentralAroundGlobal(globalMeans)
			return e
		})
		if cerr == nil && !finiteMoms(moms) {
			cerr = ErrNonFinite
		}
		if cerr != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: moments from %s: %w", c.Name(), cerr)); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
			continue
		}
		allMoms[s] = moms
		counts[s] = n
		for _, layer := range moms {
			stats.BytesUp += bytesOfVecs(layer)
		}
		stats.BytesUp += 8
	}
	for s := range idx {
		if !ok[s] {
			continue
		}
		if len(allMoms[s]) != layers {
			mismatch := fmt.Errorf("fed: client %s moment layers %d, want %d", st.clients[idx[s]].Name(), len(allMoms[s]), layers)
			if ferr := st.fail(idx[s], mismatch); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
		}
	}
	survivors := 0
	for s := range idx {
		if ok[s] {
			survivors++
		}
	}
	if survivors == 0 {
		return globalMeans, nil, nil
	}
	globalCentral := make([][]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		perClient := make([][]*mat.Dense, 0, survivors)
		cnt := make([]int, 0, survivors)
		for s := range idx {
			if ok[s] {
				perClient = append(perClient, allMoms[s][l])
				cnt = append(cnt, counts[s])
			}
		}
		gc, err := moments.AggregateCentral(perClient, cnt)
		if err != nil {
			return nil, nil, fmt.Errorf("fed: aggregating layer %d moments: %w", l, err)
		}
		globalCentral[l] = gc
	}
	for s, i := range idx {
		if !ok[s] {
			continue
		}
		c := st.clients[i]
		mc := c.(MomentClient)
		cerr := st.call(i, func() error {
			mc.SetGlobalStats(globalMeans, globalCentral)
			return nil
		})
		if cerr != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: global stats to %s: %w", c.Name(), cerr)); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		for _, layer := range globalCentral {
			stats.BytesDown += bytesOfVecs(layer)
		}
	}
	return globalMeans, globalCentral, nil
}

// auxExchange averages any auxiliary uploads from the indexed clients with
// the FedAvg weights (NumSamples, at least 1) and redistributes them,
// excluding parties the failure policy drops mid-phase.
func (st *runState) auxExchange(idx []int, stats *RoundStats) error {
	var auxSets []*nn.Params
	var auxIdx []int
	var auxWeights []float64
	for _, i := range idx {
		ac, isAux := st.clients[i].(AuxClient)
		if !isAux {
			continue
		}
		var aux *nn.Params
		cerr := st.call(i, func() error { aux = ac.UploadAux(); return nil })
		if cerr == nil && aux != nil && !finiteParams(aux) {
			cerr = ErrNonFinite
		}
		if cerr != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: aux upload from %s: %w", ac.Name(), cerr)); ferr != nil {
				return ferr
			}
			continue
		}
		if aux == nil {
			continue
		}
		auxSets = append(auxSets, aux)
		auxIdx = append(auxIdx, i)
		auxWeights = append(auxWeights, st.weights[i])
		stats.BytesUp += int64(aux.Bytes())
	}
	if len(auxSets) == 0 {
		return nil
	}
	globalAux, err := nn.Average(auxSets, auxWeights)
	if err != nil {
		return fmt.Errorf("fed: aux aggregation: %w", err)
	}
	for _, i := range auxIdx {
		ac := st.clients[i].(AuxClient)
		cerr := st.call(i, func() error { return ac.DownloadAux(globalAux) })
		if cerr != nil {
			if ferr := st.fail(i, fmt.Errorf("fed: aux download to %s: %w", ac.Name(), cerr)); ferr != nil {
				return ferr
			}
			continue
		}
		stats.BytesDown += int64(globalAux.Bytes())
	}
	return nil
}

// forEachClient runs f over clients, concurrently unless sequential, with at
// most GOMAXPROCS workers. It returns one error slot per client so callers
// can attribute each failure to the party that caused it (the DropRound and
// Quarantine policies need the index, not just a joined error). In
// sequential mode stopEarly short-circuits at the first failure — the
// historical fail-fast order; concurrent mode always drives every client.
func forEachClient(clients []Client, sequential, stopEarly bool, f func(int, Client) error) []error {
	errs := make([]error, len(clients))
	if sequential || len(clients) == 1 {
		for i, c := range clients {
			errs[i] = f(i, c)
			if errs[i] != nil && stopEarly {
				break
			}
		}
		return errs
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i, c)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// ceilFraction returns ⌈f·m⌉ clamped to [1, m] — the partial-participation
// cohort size. Products that land within one ulp-scale tolerance of an
// integer are snapped to it first, so mathematically exact cases like
// f = 1/3, m = 3 (product 0.999…) or f = 0.1, m = 30 (product 3.000…04)
// do not gain a spurious extra client from float rounding.
func ceilFraction(f float64, m int) int {
	p := f * float64(m)
	if r := math.Round(p); r > 0 && math.Abs(p-r) < 1e-9*r {
		p = r
	}
	k := int(math.Ceil(p))
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}
	return k
}

func bytesOfVecs(vs []*mat.Dense) int64 {
	var total int64
	for _, v := range vs {
		total += int64(8 * v.Rows() * v.Cols())
	}
	return total
}

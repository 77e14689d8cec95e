package fed

// async.go implements the buffered asynchronous aggregation mode
// (Config.Aggregation == AggAsync): the middle of a FedBuff-style
// no-barrier round, run by Run's round loop, in which the coordinator
// dispatches training jobs to every idle sampled party, collects the first
// BufferK arrivals of each logical round, and folds them into the global
// model with staleness-discounted weights w_i/(1+s)^α, where s is the number
// of logical rounds elapsed since the update's global was dispatched. Late
// arrivals are not discarded at a barrier — they fold into the next round's
// buffer — and the paper's central-moment aggregation decomposes into
// weighted sums, so the same discounted fold applies exactly to the
// mean/moment statistics and to aux state. Updates older than MaxStaleness
// at fold time are evicted (their party takes a policy failure, and its link
// forgets the party's reference, see discard); a party benched by Quarantine
// while its update was in flight has that update rejected at fold time. The
// DropRound/Quarantine/quorum machinery of failure.go composes unchanged.
//
// Concurrency model: one worker goroutine per in-flight job, sequencing its
// party's client calls through runState.call (busy flag + per-call timeout,
// exactly the sync round's per-op discipline). The coordinator alone touches
// runState's per-round bookkeeping and the buffer, and forgets references;
// globals and statistics snapshots handed to workers are immutable once
// published (every fold builds fresh matrices). A party is redispatched only
// when it is neither in flight nor holding a buffered update, so its link is
// never driven concurrently with a fold-time forget.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// AggregationMode selects Run's round topology.
type AggregationMode int

const (
	// AggSync is the barriered synchronous loop — the zero value,
	// bit-identical to the historical behavior.
	AggSync AggregationMode = iota
	// AggAsync is the buffered no-barrier mode implemented in this file.
	AggAsync
)

// String returns the flag-friendly name of the mode.
func (m AggregationMode) String() string {
	switch m {
	case AggSync:
		return "sync"
	case AggAsync:
		return "async"
	}
	return fmt.Sprintf("AggregationMode(%d)", int(m))
}

// ParseAggregation maps a flag value to a mode, case-insensitively; the
// empty string selects the synchronous default.
func ParseAggregation(s string) (AggregationMode, error) {
	switch strings.ToLower(s) {
	case "", "sync":
		return AggSync, nil
	case "async", "buffered":
		return AggAsync, nil
	}
	return AggSync, fmt.Errorf("fed: unknown aggregation mode %q (want sync or async)", s)
}

// ErrStaleUpdate reports a buffered update evicted because it exceeded
// Config.MaxStaleness at fold time; match with errors.Is.
var ErrStaleUpdate = errors.New("update older than MaxStaleness at fold time")

// asyncUpdate is one completed dispatch: everything a worker brought back
// from its party, tagged with the logical round whose global it trained on.
type asyncUpdate struct {
	party    int
	dispatch int   // logical round of the global this update trained on
	err      error // any failed client op; the rest of the fields are then partial

	loss      float64
	params    *nn.Params
	pooled    bool // params decoded from a blob: release with codec.PutParams
	upBytes   int64
	downBytes int64
	means     []*mat.Dense
	count     int
	moms      [][]*mat.Dense
	aux       *nn.Params
	trainSecs float64
}

// asyncStats is the coordinator's current global-statistics state, handed to
// workers by value at dispatch. The slices are immutable once published:
// folds install fresh replacements rather than mutating in place.
type asyncStats struct {
	means   []*mat.Dense
	central [][]*mat.Dense
	aux     *nn.Params
}

// asyncEngine owns the buffered-aggregation state. All fields are
// coordinator-owned except arrivals, which workers send on (buffered to the
// fleet size, so a worker can never block: each party has at most one job in
// flight).
type asyncEngine struct {
	st *runState

	k        int     // buffer threshold per logical round
	maxStale int     // eviction bound, in logical rounds
	alpha    float64 // staleness-discount exponent

	inflight     []bool
	nFlight      int
	lastDispatch []int
	buffer       []*asyncUpdate // arrived, not yet folded; arrival order
	arrivals     chan *asyncUpdate
	stats        asyncStats
}

func newAsyncEngine(st *runState) *asyncEngine {
	n, cfg := len(st.clients), st.cfg
	eng := &asyncEngine{
		st:           st,
		k:            cfg.BufferK,
		maxStale:     cfg.MaxStaleness,
		alpha:        cfg.StalenessAlpha,
		inflight:     make([]bool, n),
		lastDispatch: make([]int, n),
		arrivals:     make(chan *asyncUpdate, n),
	}
	if eng.k <= 0 {
		eng.k = (n + 1) / 2 // ⌈M/2⌉: absorb the slow half of the fleet
	}
	if eng.maxStale <= 0 {
		eng.maxStale = 8
	}
	if eng.alpha <= 0 {
		eng.alpha = 1
	}
	for i := range eng.lastDispatch {
		eng.lastDispatch[i] = -1
	}
	return eng
}

// discount is the staleness weight factor 1/(1+s)^α.
func (eng *asyncEngine) discount(staleness int) float64 {
	return 1 / math.Pow(1+float64(staleness), eng.alpha)
}

// discard drops an update that never folds. A decoded one returns its
// buffers to the pool, and the party's link forgets its reference: the
// party's error-feedback residuals only have meaning against the chain of
// frames the server actually folded, so the next broadcast is absolute,
// which resets them on the party's end.
func (eng *asyncEngine) discard(u *asyncUpdate) {
	eng.release(u)
	if u.pooled {
		eng.st.clients[u.party].(partyLink).forget()
	}
}

// release frees a folded update's pooled buffers (its frame WAS applied, so
// residuals stay).
func (eng *asyncEngine) release(u *asyncUpdate) {
	if u.pooled && u.params != nil {
		codec.PutParams(u.params)
		u.params = nil
	}
}

// shutdown waits out every in-flight worker and discards whatever never
// folded, so pooled buffers return and no goroutine outlives the run.
func (eng *asyncEngine) shutdown() {
	for eng.nFlight > 0 {
		u := <-eng.arrivals
		eng.inflight[u.party] = false
		eng.nFlight--
		eng.discard(u)
	}
	for _, u := range eng.buffer {
		eng.discard(u)
	}
	eng.buffer = nil
}

// dispatch hands party i a training job against the current global and
// statistics snapshot. The worker sequences the party's ops through
// runState.call and always delivers exactly one asyncUpdate.
func (eng *asyncEngine) dispatch(parent obs.SpanContext, i, round int, global *nn.Params) {
	eng.inflight[i] = true
	eng.nFlight++
	eng.lastDispatch[i] = round
	eng.st.rec.Count(MetricAsyncDispatched, 1)
	snap := eng.stats
	go func() {
		u := &asyncUpdate{party: i, dispatch: round}
		jsp := eng.st.spans.Start(parent, obs.SpanAsyncJob)
		jsp.SetAttr(obs.AttrParty, eng.st.clients[i].Name())
		jsp.SetAttr(obs.AttrDispatch, round)
		eng.runJob(jsp.Context(), u, i, round, global, snap)
		if u.err != nil {
			jsp.Fail(u.err)
		} else {
			jsp.End()
		}
		eng.arrivals <- u
	}()
}

// runJob drives one party through the full per-round protocol — broadcast,
// statistics, training, upload — writing results into u. Any failed op sets
// u.err and stops the job; the coordinator routes it to the failure policy.
func (eng *asyncEngine) runJob(ctx obs.SpanContext, u *asyncUpdate, i, round int, global *nn.Params, snap asyncStats) {
	st := eng.st
	c := st.clients[i]

	n, err := st.sendParams(i, global)
	if err != nil {
		u.err = fmt.Errorf("fed: broadcast to %s: %w", c.Name(), err)
		return
	}
	u.downBytes += n

	if mc, ok := c.(MomentClient); ok && st.allMoment {
		var means []*mat.Dense
		var n int
		err := st.call(i, func() error {
			var e error
			means, n, e = mc.LocalMeans()
			return e
		})
		if err == nil && !finiteVecs(means) {
			err = ErrNonFinite
		}
		if err != nil {
			u.err = fmt.Errorf("fed: means from %s: %w", c.Name(), err)
			return
		}
		u.means, u.count = means, n
		u.upBytes += bytesOfVecs(means) + 8
		if snap.means != nil {
			u.downBytes += bytesOfVecs(snap.means)
			var moms [][]*mat.Dense
			err := st.call(i, func() error {
				var e error
				moms, _, e = mc.CentralAroundGlobal(snap.means)
				return e
			})
			if err == nil && !finiteMoms(moms) {
				err = ErrNonFinite
			}
			if err != nil {
				u.err = fmt.Errorf("fed: moments from %s: %w", c.Name(), err)
				return
			}
			u.moms = moms
			for _, layer := range moms {
				u.upBytes += bytesOfVecs(layer)
			}
			u.upBytes += 8
			if snap.central != nil {
				if err := st.call(i, func() error {
					mc.SetGlobalStats(snap.means, snap.central)
					return nil
				}); err != nil {
					u.err = fmt.Errorf("fed: global stats to %s: %w", c.Name(), err)
					return
				}
				for _, layer := range snap.central {
					u.downBytes += bytesOfVecs(layer)
				}
			}
		}
	}

	if ac, ok := c.(AuxClient); ok && snap.aux != nil {
		if err := st.call(i, func() error { return ac.DownloadAux(snap.aux) }); err != nil {
			u.err = fmt.Errorf("fed: aux download to %s: %w", c.Name(), err)
			return
		}
		u.downBytes += int64(snap.aux.Bytes())
	}

	tsp := st.spans.Start(ctx, obs.SpanClientTrain)
	tsp.SetAttr(obs.AttrParty, c.Name())
	t0 := time.Now()
	var loss float64
	err = st.call(i, func() error {
		l, e := c.TrainLocal(round)
		loss = l
		return e
	})
	u.trainSecs = time.Since(t0).Seconds()
	if err != nil {
		tsp.Fail(err)
		u.err = fmt.Errorf("fed: client %s round %d: %w", c.Name(), round, err)
		return
	}
	tsp.End()
	u.loss = loss

	p, n, isPooled, err := st.upload(ctx, i, nil)
	if err != nil {
		u.err = err
		return
	}
	// discard() releases a pooled set if the fold screens it out.
	u.params, u.upBytes, u.pooled = p, u.upBytes+n, isPooled

	if ac, ok := c.(AuxClient); ok {
		var aux *nn.Params
		err := st.call(i, func() error { aux = ac.UploadAux(); return nil })
		if err == nil && aux != nil && !finiteParams(aux) {
			err = ErrNonFinite
		}
		if err != nil {
			u.err = fmt.Errorf("fed: aux upload from %s: %w", c.Name(), err)
			return
		}
		if aux != nil {
			u.aux = aux
			u.upBytes += int64(aux.Bytes())
		}
	}
}

// absorb files one arrival: failures go to the failure policy (the returned
// error aborts the run under FailFast), successes join the buffer and charge
// the collecting round's byte accounting.
func (eng *asyncEngine) absorb(u *asyncUpdate, stats *RoundStats) error {
	eng.inflight[u.party] = false
	eng.nFlight--
	if u.err != nil {
		eng.discard(u)
		return eng.st.fail(u.party, u.err)
	}
	stats.BytesUp += u.upBytes
	stats.BytesDown += u.downBytes
	eng.buffer = append(eng.buffer, u)
	return nil
}

// statsShapeOK screens an update's statistics payload against a reference
// before the fold touches any matrix math (shape mismatches would otherwise
// panic inside the in-place kernels).
func statsShapeOK(u *asyncUpdate, ref *asyncUpdate) bool {
	if len(u.means) != len(ref.means) {
		return false
	}
	for l := range u.means {
		if u.means[l].Rows() != ref.means[l].Rows() || u.means[l].Cols() != ref.means[l].Cols() {
			return false
		}
	}
	if u.moms != nil && ref.moms != nil {
		if len(u.moms) != len(ref.moms) {
			return false
		}
		for l := range u.moms {
			if len(u.moms[l]) != len(ref.moms[l]) {
				return false
			}
		}
	}
	return true
}

// fold consumes the first K buffered updates: it rejects updates from
// parties benched while in flight, evicts updates past the staleness bound
// (a policy failure for the party), staleness-discounts the survivors'
// weights, and merges params, statistics, and aux state. The merged global
// is returned; on lost quorum the survivors are pushed back into the buffer
// and an ErrQuorumLost-wrapping error returned, so QuorumSkip keeps them for
// the next round.
func (eng *asyncEngine) fold(round int, global *nn.Params) (*roundOutcome, error) {
	st := eng.st
	take := eng.buffer
	if len(take) > eng.k {
		take = take[:eng.k]
	}
	rest := eng.buffer[len(take):]
	if len(rest) > 0 {
		st.rec.Count(MetricAsyncCarried, int64(len(rest)))
	}
	eng.buffer = append([]*asyncUpdate(nil), rest...)

	var kept []*asyncUpdate
	var statsRef *asyncUpdate
	for _, u := range take {
		if st.benched(u.party, round) {
			// Benched while in flight: the bench already penalized the
			// party, so the update is rejected without a fresh strike.
			st.rec.Count(MetricAsyncRejected, 1)
			eng.discard(u)
			continue
		}
		if s := round - u.dispatch; s > eng.maxStale {
			st.rec.Count(MetricAsyncEvicted, 1)
			ferr := st.fail(u.party, fmt.Errorf("fed: update from %s dispatched round %d folded round %d: %w",
				st.clients[u.party].Name(), u.dispatch, round, ErrStaleUpdate))
			eng.discard(u)
			if ferr != nil {
				return nil, ferr
			}
			continue
		}
		badShape := global.Compatible(u.params)
		if badShape == nil && st.allMoment && u.means != nil {
			if statsRef == nil {
				statsRef = u
			} else if !statsShapeOK(u, statsRef) {
				badShape = fmt.Errorf("statistics shape mismatch")
			}
		}
		if badShape != nil {
			ferr := st.fail(u.party, fmt.Errorf("fed: upload from %s: %w", st.clients[u.party].Name(), badShape))
			eng.discard(u)
			if ferr != nil {
				return nil, ferr
			}
			continue
		}
		kept = append(kept, u)
	}

	if err := st.quorum(round, len(kept)); err != nil {
		// Push the survivors back so a skipped round keeps, not loses, them.
		eng.buffer = append(kept, eng.buffer...)
		return nil, err
	}

	// Deterministic fold order: the arrival schedule decides WHICH updates
	// are in the buffer, but given that set the math is order-independent.
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].dispatch != kept[b].dispatch {
			return kept[a].dispatch < kept[b].dispatch
		}
		return kept[a].party < kept[b].party
	})

	out := &roundOutcome{folded: len(kept)}
	sets := make([]*nn.Params, len(kept))
	ws := make([]float64, len(kept))
	stales := make([]float64, len(kept))
	var lossSum, lossW float64
	for n, u := range kept {
		s := round - u.dispatch
		stales[n] = float64(s)
		w := st.weights[u.party] * eng.discount(s)
		sets[n] = u.params
		ws[n] = w
		lossSum += w * u.loss
		lossW += w
		st.touched[u.party] = true
		st.rec.Observe(MetricAsyncStaleness, float64(s))
		out.trained = append(out.trained, trained{party: u.party, secs: u.trainSecs})
	}
	st.rec.Count(MetricAsyncFolded, int64(len(kept)))
	if lossW > 0 {
		out.trainLoss = lossSum / lossW
	}
	sort.Float64s(stales)
	out.staleP99 = stales[(len(stales)*99)/100]

	agg, err := nn.Average(sets, ws)
	if err != nil {
		return nil, fmt.Errorf("fed: aggregation: %w", err)
	}
	out.global = agg

	if st.allMoment {
		eng.foldStats(kept, round)
	}
	if err := eng.foldAux(kept, round); err != nil {
		return nil, err
	}
	for _, u := range kept {
		eng.release(u)
	}
	return out, nil
}

// foldStats merges the kept updates' means and central moments into the
// engine's statistics state with the same staleness-discounted sample-count
// weights the sync aggregators use (count_i/(1+s)^α): the paper's moment
// aggregation is a weighted sum, so partial discounted folding is exact for
// a fixed center. Fresh matrices are installed — snapshots in flight keep
// reading the old ones.
func (eng *asyncEngine) foldStats(kept []*asyncUpdate, round int) {
	var contrib []*asyncUpdate
	for _, u := range kept {
		if u.means != nil && u.count > 0 {
			contrib = append(contrib, u)
		}
	}
	if len(contrib) == 0 {
		return
	}
	layers := len(contrib[0].means)
	newMeans := make([]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		acc := mat.New(contrib[0].means[l].Rows(), contrib[0].means[l].Cols())
		var wsum float64
		for _, u := range contrib {
			w := float64(u.count) * eng.discount(round-u.dispatch)
			acc.AXPY(w, u.means[l])
			wsum += w
		}
		acc.ScaleInPlace(1 / wsum)
		newMeans[l] = acc
	}
	eng.stats.means = newMeans

	var momful []*asyncUpdate
	for _, u := range contrib {
		if len(u.moms) == layers {
			momful = append(momful, u)
		}
	}
	if len(momful) == 0 {
		return // keep the previous central moments until new ones arrive
	}
	newCentral := make([][]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		orders := len(momful[0].moms[l])
		newCentral[l] = make([]*mat.Dense, orders)
		for o := 0; o < orders; o++ {
			acc := mat.New(momful[0].moms[l][o].Rows(), momful[0].moms[l][o].Cols())
			var wsum float64
			for _, u := range momful {
				w := float64(u.count) * eng.discount(round-u.dispatch)
				acc.AXPY(w, u.moms[l][o])
				wsum += w
			}
			acc.ScaleInPlace(1 / wsum)
			newCentral[l][o] = acc
		}
	}
	eng.stats.central = newCentral
}

// foldAux merges the kept updates' aux uploads (the FedAvg weights
// discounted by staleness, the same weights the parameter fold uses) and
// installs the aggregate as the state future dispatches download.
func (eng *asyncEngine) foldAux(kept []*asyncUpdate, round int) error {
	var sets []*nn.Params
	var ws []float64
	for _, u := range kept {
		if u.aux != nil {
			sets = append(sets, u.aux)
			ws = append(ws, eng.st.weights[u.party]*eng.discount(round-u.dispatch))
		}
	}
	if len(sets) == 0 {
		return nil
	}
	globalAux, err := nn.Average(sets, ws)
	if err != nil {
		return fmt.Errorf("fed: aux aggregation: %w", err)
	}
	eng.stats.aux = globalAux
	return nil
}

// round is the middle of a no-barrier logical round: bootstrap the
// statistics once, score the global entering the round on the idle parties,
// dispatch to every idle sampled party, collect up to K arrivals and fold
// them into a new global.
func (eng *asyncEngine) round(parent obs.SpanContext, round int, global *nn.Params, stats *RoundStats, out *roundOutcome) error {
	st := eng.st
	// Updates in flight or buffered, whatever path leaves the round.
	defer func() { out.active = eng.nFlight + len(eng.buffer) }()
	reach := st.reachable(round)
	if err := st.quorum(round, len(reach)); err != nil {
		return err
	}

	// Bootstrap the statistics state with one synchronous exchange
	// (broadcast + Algorithm 1's two legs) the first time through:
	// dispatches need global means to center moments on, and a resumed run
	// restores them from the checkpoint instead.
	if st.allMoment && eng.stats.means == nil {
		if err := st.broadcast(parent, reach, global, stats); err != nil {
			return err
		}
		gm, gc, err := st.momentExchange(parent, round, st.aliveOf(reach), stats)
		if err != nil {
			return err
		}
		eng.stats.means, eng.stats.central = gm, gc
	}

	// Score the global entering the round on the idle parties (an in-flight
	// party cannot be probed without violating the one-call-at-a-time
	// contract). A codec-less run books no bytes for these installs: this
	// is scoring, not protocol traffic. Under a codec an install moves the
	// party's reference, so its blob carries the round's delta (the
	// dispatch after it sends the global against itself) and is booked.
	if st.evalDue(round) {
		idle := make([]int, 0, len(reach))
		for _, i := range reach {
			if !eng.inflight[i] && !st.dropped[i] {
				idle = append(idle, i)
			}
		}
		// Lenient, like st.evaluate: a party that cannot take the install
		// is left out of the scoring, and no failure stops the others'.
		sent := make([]int64, len(idle))
		errs := forEachClient(len(idle), st.cfg.Sequential, false, func(s int) (err error) {
			sent[s], err = st.sendParams(idle[s], global)
			return err
		})
		evalIdx := idle[:0]
		for s, i := range idle {
			if errs[s] != nil {
				continue
			}
			if st.cfg.Codec.Enabled() {
				stats.BytesDown += sent[s]
			}
			evalIdx = append(evalIdx, i)
		}
		if len(evalIdx) > 0 {
			st.score(parent, round, evalIdx, stats)
			out.evaluated = true
		}
	}

	// Dispatch to every sampled party that is idle and holds no buffered
	// update (so a fold-time forget can never race the party's own link).
	buffered := make([]bool, len(st.clients))
	for _, u := range eng.buffer {
		buffered[u.party] = true
	}
	for _, i := range st.cohort(round, reach) {
		if eng.inflight[i] || buffered[i] || st.dropped[i] {
			continue
		}
		eng.dispatch(parent, i, round, global)
	}

	stalled, err := eng.collect(parent, stats)
	out.stalled = stalled
	if err != nil {
		return err
	}

	sp := st.spans.Start(parent, obs.SpanAggregate)
	f, err := eng.fold(round, global)
	if f != nil {
		sp.SetAttr(obs.AttrBufferFill, f.folded)
		sp.SetAttr(obs.AttrBufferTarget, eng.k)
		sp.SetAttr(obs.AttrStalenessP99, f.staleP99)
	}
	sp.End()
	if err != nil {
		return err
	}
	out.global, out.trainLoss, out.trained = f.global, f.trainLoss, f.trained
	out.folded, out.staleP99 = f.folded, f.staleP99
	return nil
}

// collect absorbs arrivals until the buffer holds K updates, nothing more
// can arrive, or the round deadline expires; it reports whether the
// deadline did.
func (eng *asyncEngine) collect(parent obs.SpanContext, stats *RoundStats) (stalled bool, err error) {
	sp := eng.st.spans.Start(parent, obs.SpanBufferWait)
	defer sp.End()
	var deadline <-chan time.Time
	if eng.st.cfg.BufferTimeout > 0 {
		timer := time.NewTimer(eng.st.cfg.BufferTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for len(eng.buffer) < eng.k && eng.nFlight > 0 {
		select {
		case u := <-eng.arrivals:
			if err := eng.absorb(u, stats); err != nil {
				return false, err
			}
		case <-deadline:
			eng.st.rec.Count(MetricAsyncStalls, 1)
			return true, nil
		}
	}
	return false, nil
}

package bench

import (
	"sync"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// Operation names the decorator books calls under; they are the suffixes of
// the core.* per-layer metrics and of the span names.
const (
	OpSetParams      = "set_params"
	OpTrainLocal     = "train_local"
	OpParams         = "params"
	OpEval           = "eval"
	OpLocalMeans     = "local_means"
	OpCentralMoments = "central_moments"
	OpSetGlobalStats = "set_global_stats"
	OpAux            = "aux"
)

// Call is one timed call into a fed.Client.
type Call struct {
	Party, Op  string
	Start, End time.Time
}

// CallLog collects the calls of a whole fleet.
type CallLog struct {
	mu    sync.Mutex
	calls []Call
}

func (l *CallLog) add(party, op string, start time.Time) {
	end := time.Now()
	l.mu.Lock()
	l.calls = append(l.calls, Call{Party: party, Op: op, Start: start, End: end})
	l.mu.Unlock()
}

// Calls returns the calls logged so far.
func (l *CallLog) Calls() []Call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Call(nil), l.calls...)
}

// timed is the timing wrapper around a fed.Client: it measures every call
// from outside and changes nothing else. Like chaos.Wrap it must keep the
// inner client's MomentClient and AuxClient surfaces, because fed.Run picks
// the protocol by type assertion.
type timed struct {
	inner fed.Client
	log   *CallLog
}

// Decorate wraps inner so that every call is appended to log.
func Decorate(inner fed.Client, log *CallLog) fed.Client {
	t := &timed{inner: inner, log: log}
	mc, isMoment := inner.(fed.MomentClient)
	ac, isAux := inner.(fed.AuxClient)
	switch {
	case isMoment && isAux:
		return &timedMomentAux{timedMoment{t, mc}, ac}
	case isMoment:
		return &timedMoment{t, mc}
	case isAux:
		return &timedAux{t, ac}
	}
	return t
}

// DecorateFleet decorates every client onto one log.
func DecorateFleet(clients []fed.Client, log *CallLog) []fed.Client {
	out := make([]fed.Client, len(clients))
	for i, c := range clients {
		out[i] = Decorate(c, log)
	}
	return out
}

func (t *timed) Name() string    { return t.inner.Name() }
func (t *timed) NumSamples() int { return t.inner.NumSamples() }

func (t *timed) Params() *nn.Params {
	defer t.log.add(t.inner.Name(), OpParams, time.Now())
	return t.inner.Params()
}

func (t *timed) SetParams(global *nn.Params) error {
	defer t.log.add(t.inner.Name(), OpSetParams, time.Now())
	return t.inner.SetParams(global)
}

func (t *timed) TrainLocal(round int) (float64, error) {
	defer t.log.add(t.inner.Name(), OpTrainLocal, time.Now())
	return t.inner.TrainLocal(round)
}

func (t *timed) EvalVal() (int, int) {
	defer t.log.add(t.inner.Name(), OpEval, time.Now())
	return t.inner.EvalVal()
}

func (t *timed) EvalTest() (int, int) {
	defer t.log.add(t.inner.Name(), OpEval, time.Now())
	return t.inner.EvalTest()
}

type timedMoment struct {
	*timed
	mc fed.MomentClient
}

func (t *timedMoment) LocalMeans() ([]*mat.Dense, int, error) {
	defer t.log.add(t.inner.Name(), OpLocalMeans, time.Now())
	return t.mc.LocalMeans()
}

func (t *timedMoment) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	defer t.log.add(t.inner.Name(), OpCentralMoments, time.Now())
	return t.mc.CentralAroundGlobal(globalMeans)
}

func (t *timedMoment) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	defer t.log.add(t.inner.Name(), OpSetGlobalStats, time.Now())
	t.mc.SetGlobalStats(means, central)
}

type timedAux struct {
	*timed
	ac fed.AuxClient
}

func (t *timedAux) UploadAux() *nn.Params {
	defer t.log.add(t.inner.Name(), OpAux, time.Now())
	return t.ac.UploadAux()
}

func (t *timedAux) DownloadAux(global *nn.Params) error {
	defer t.log.add(t.inner.Name(), OpAux, time.Now())
	return t.ac.DownloadAux(global)
}

type timedMomentAux struct {
	timedMoment
	ac fed.AuxClient
}

func (t *timedMomentAux) UploadAux() *nn.Params {
	defer t.log.add(t.inner.Name(), OpAux, time.Now())
	return t.ac.UploadAux()
}

func (t *timedMomentAux) DownloadAux(global *nn.Params) error {
	defer t.log.add(t.inner.Name(), OpAux, time.Now())
	return t.ac.DownloadAux(global)
}

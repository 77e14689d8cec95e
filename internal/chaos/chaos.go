// Package chaos provides seeded, deterministic fault injectors for the
// federated runtime: client wrappers that error transiently, crash
// permanently at a chosen round, stall with fixed or heavy-tailed latency,
// or poison their uploads with NaNs. The package's tests add
// connection/listener wrappers that delay or sever links mid-RPC (see
// conn_test.go). Every fault schedule derives from explicit seeds, so a
// chaotic run is exactly repeatable and can sit in a test suite.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
)

// ClientConfig schedules the faults one wrapped client injects.
type ClientConfig struct {
	// Seed drives the client's private fault stream.
	Seed int64
	// ErrRate is the per-call probability of a transient error on the
	// operations that can report one (broadcast, statistics, training,
	// aux download).
	ErrRate float64
	// CrashAtRound permanently fails every erroring operation from that
	// round on — the round clock is the number of broadcasts received.
	// 0 disables crashing.
	CrashAtRound int
	// NaNRate is the per-upload probability that Params returns a
	// NaN-poisoned copy, exercising the aggregator's non-finite screening.
	NaNRate float64
	// Latency is slept before every operation; with HeavyTail, one call in
	// ten sleeps 10×Latency, modeling a straggler.
	Latency   time.Duration
	HeavyTail bool
	// Tracer, when set, annotates every injected fault as a "chaos/fault"
	// trace event under the tracer's active context (the current round or
	// request span), so chaos shows up inline on the causal timeline.
	Tracer *obs.Tracer
}

// Client wraps a fed.Client with the configured fault schedule. Use Wrap to
// preserve the inner client's MomentClient/AuxClient capabilities.
type Client struct {
	inner fed.Client
	cfg   ClientConfig

	mu    sync.Mutex
	rng   *rand.Rand
	round int // broadcasts received - 1; -1 before the first
}

// New wraps inner as a plain fed.Client (capabilities erased — prefer Wrap).
func New(inner fed.Client, cfg ClientConfig) *Client {
	return &Client{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), round: -1}
}

// Wrap wraps inner with fault injection, preserving its MomentClient and
// AuxClient interfaces so the runtime's capability detection still sees them.
func Wrap(inner fed.Client, cfg ClientConfig) fed.Client {
	c := New(inner, cfg)
	mc, isMoment := inner.(fed.MomentClient)
	ac, isAux := inner.(fed.AuxClient)
	switch {
	case isMoment && isAux:
		return &momentAuxInjector{Client: c, mc: mc, ac: ac}
	case isMoment:
		return &momentInjector{Client: c, mc: mc}
	case isAux:
		return &auxInjector{Client: c, ac: ac}
	default:
		return c
	}
}

// disturb sleeps the scheduled latency and returns the scheduled error (nil
// on a healthy call) for one operation.
func (c *Client) disturb(op string) error {
	c.mu.Lock()
	sleep := c.cfg.Latency
	if sleep > 0 && c.cfg.HeavyTail && c.rng.Float64() < 0.1 {
		sleep *= 10
	}
	var err error
	kind := ""
	switch {
	case c.cfg.CrashAtRound > 0 && c.round >= c.cfg.CrashAtRound:
		err = fmt.Errorf("chaos: %s: party %s crashed at round %d", op, c.inner.Name(), c.cfg.CrashAtRound)
		kind = "crash"
	case c.cfg.ErrRate > 0 && c.rng.Float64() < c.cfg.ErrRate:
		err = fmt.Errorf("chaos: %s: injected transient fault at party %s", op, c.inner.Name())
		kind = "transient"
	}
	c.mu.Unlock()
	if err != nil {
		c.annotate(kind, op, sleep)
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return err
}

// annotate emits one injected fault as a trace event under the tracer's
// active context.
func (c *Client) annotate(kind, op string, sleep time.Duration) {
	tr := c.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Event(tr.Active(), obs.MetricChaosFault, "warn",
		obs.KV(obs.AttrParty, c.inner.Name()),
		obs.KV(obs.AttrKind, kind),
		obs.KV(obs.AttrOp, op),
		obs.KV(obs.AttrDelaySec, sleep.Seconds()),
	)
}

// delay applies only the latency schedule (for operations with no error
// path).
func (c *Client) delay() {
	c.mu.Lock()
	sleep := c.cfg.Latency
	if sleep > 0 && c.cfg.HeavyTail && c.rng.Float64() < 0.1 {
		sleep *= 10
	}
	c.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
}

func (c *Client) Name() string    { return c.inner.Name() }
func (c *Client) NumSamples() int { return c.inner.NumSamples() }

// SetParams advances the round clock (the coordinator broadcasts exactly
// once per round) before consulting the fault schedule.
func (c *Client) SetParams(global *nn.Params) error {
	c.mu.Lock()
	c.round++
	c.mu.Unlock()
	if err := c.disturb("set_params"); err != nil {
		return err
	}
	return c.inner.SetParams(global)
}

func (c *Client) TrainLocal(round int) (float64, error) {
	if err := c.disturb("train_local"); err != nil {
		return 0, err
	}
	return c.inner.TrainLocal(round)
}

// Params applies latency and, with probability NaNRate, returns a poisoned
// copy whose first parameter carries a NaN (the inner model is untouched).
func (c *Client) Params() *nn.Params {
	c.delay()
	c.mu.Lock()
	poison := c.cfg.NaNRate > 0 && c.rng.Float64() < c.cfg.NaNRate
	c.mu.Unlock()
	p := c.inner.Params()
	if poison && p.Len() > 0 {
		p = p.Clone()
		p.At(0).Set(0, 0, math.NaN())
		c.annotate("nan_poison", "get_params", 0)
	}
	return p
}

func (c *Client) EvalVal() (int, int) {
	c.delay()
	return c.inner.EvalVal()
}

func (c *Client) EvalTest() (int, int) {
	c.delay()
	return c.inner.EvalTest()
}

// momentInjector adds the MomentClient surface to a wrapped client.
type momentInjector struct {
	*Client
	mc fed.MomentClient
}

func (m *momentInjector) LocalMeans() ([]*mat.Dense, int, error) {
	if err := m.disturb("local_means"); err != nil {
		return nil, 0, err
	}
	return m.mc.LocalMeans()
}

func (m *momentInjector) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	if err := m.disturb("central_moments"); err != nil {
		return nil, 0, err
	}
	return m.mc.CentralAroundGlobal(globalMeans)
}

func (m *momentInjector) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	m.delay()
	m.mc.SetGlobalStats(means, central)
}

// auxInjector adds the AuxClient surface to a wrapped client.
type auxInjector struct {
	*Client
	ac fed.AuxClient
}

func (a *auxInjector) UploadAux() *nn.Params {
	a.delay()
	return a.ac.UploadAux()
}

func (a *auxInjector) DownloadAux(global *nn.Params) error {
	if err := a.disturb("download_aux"); err != nil {
		return err
	}
	return a.ac.DownloadAux(global)
}

// momentAuxInjector carries both capability surfaces.
type momentAuxInjector struct {
	*Client
	mc fed.MomentClient
	ac fed.AuxClient
}

func (m *momentAuxInjector) LocalMeans() ([]*mat.Dense, int, error) {
	if err := m.disturb("local_means"); err != nil {
		return nil, 0, err
	}
	return m.mc.LocalMeans()
}

func (m *momentAuxInjector) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	if err := m.disturb("central_moments"); err != nil {
		return nil, 0, err
	}
	return m.mc.CentralAroundGlobal(globalMeans)
}

func (m *momentAuxInjector) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	m.delay()
	m.mc.SetGlobalStats(means, central)
}

func (m *momentAuxInjector) UploadAux() *nn.Params {
	m.delay()
	return m.ac.UploadAux()
}

func (m *momentAuxInjector) DownloadAux(global *nn.Params) error {
	if err := m.disturb("download_aux"); err != nil {
		return err
	}
	return m.ac.DownloadAux(global)
}

// FleetConfig scatters faults over a whole client fleet.
type FleetConfig struct {
	// Seed drives both the crash-victim draw and each client's private
	// fault stream.
	Seed int64
	// CrashFraction of the fleet (rounded up) crashes permanently at
	// CrashAtRound; the victims are drawn by seeded permutation.
	CrashFraction float64
	CrashAtRound  int
	// ErrRate, NaNRate, Latency, and HeavyTail apply to every client.
	ErrRate   float64
	NaNRate   float64
	Latency   time.Duration
	HeavyTail bool
	// SlowFraction of the fleet (rounded up) is permanently degraded: every
	// operation at a slow party sleeps SlowLatency — a deterministic
	// sustained straggler, not heavy-tail jitter, so async soaks exercise
	// the staleness discount rather than the timeout path. Victims are
	// drawn by seeded permutation after the crash draw; their SlowLatency
	// replaces the fleet-wide Latency/HeavyTail profile.
	SlowFraction float64
	SlowLatency  time.Duration
	// Tracer annotates every injected fault on the trace stream (see
	// ClientConfig.Tracer); it is shared by the whole fleet.
	Tracer *obs.Tracer
}

// WrapFleet wraps every client with a fault schedule derived from cfg,
// choosing ⌈CrashFraction·M⌉ crash victims by seeded permutation.
func WrapFleet(clients []fed.Client, cfg FleetConfig) []fed.Client {
	rng := rand.New(rand.NewSource(cfg.Seed))
	crashers := make(map[int]bool)
	if cfg.CrashFraction > 0 && cfg.CrashAtRound > 0 {
		k := int(math.Ceil(cfg.CrashFraction * float64(len(clients))))
		if k > len(clients) {
			k = len(clients)
		}
		for _, i := range rng.Perm(len(clients))[:k] {
			crashers[i] = true
		}
	}
	slow := make(map[int]bool)
	if cfg.SlowFraction > 0 && cfg.SlowLatency > 0 {
		k := int(math.Ceil(cfg.SlowFraction * float64(len(clients))))
		if k > len(clients) {
			k = len(clients)
		}
		for _, i := range rng.Perm(len(clients))[:k] {
			slow[i] = true
		}
	}
	out := make([]fed.Client, len(clients))
	for i, c := range clients {
		cc := ClientConfig{
			Seed:      cfg.Seed + int64(i)*7919,
			ErrRate:   cfg.ErrRate,
			NaNRate:   cfg.NaNRate,
			Latency:   cfg.Latency,
			HeavyTail: cfg.HeavyTail,
			Tracer:    cfg.Tracer,
		}
		if crashers[i] {
			cc.CrashAtRound = cfg.CrashAtRound
		}
		if slow[i] {
			cc.Latency = cfg.SlowLatency
			cc.HeavyTail = false
		}
		out[i] = Wrap(c, cc)
	}
	return out
}

package bench

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fedomd/internal/chaos"
	"fedomd/internal/codec"
	"fedomd/internal/core"
	"fedomd/internal/fed"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// Validation-accuracy floors of the correctness checks; BENCHMARK.json's
// README section quotes them. A run below its floor trained the wrong thing,
// whatever its speed.
const (
	floorTrainDense  = 0.85
	floorTrainSparse = 0.30
	floorFedTCP      = 0.70
	floorAsync       = 0.40
	// targetValAcc is the quality target of time_to_target_s on train_dense,
	// whose validation accuracy plateaus near 0.93.
	targetValAcc = 0.80
)

func releaseFleet(*fleet) {}

// decorateIf wraps the fleet in timing decorators for a traced pass and
// leaves it alone (nil log) otherwise.
func decorateIf(trace bool, clients []fed.Client) ([]fed.Client, *CallLog) {
	if !trace {
		return clients, nil
	}
	log := &CallLog{}
	return DecorateFleet(clients, log), log
}

// inProcessLayers fills what every traced in-process training run reports:
// the spans, the per-call and per-round numbers derived from them, the exact
// counts of the process-global counters and the description of the cut.
func inProcessLayers(r *WorkloadResult, f *fleet, tr *trainRun, log *CallLog, before map[string]int64) {
	calls := log.Calls()
	a := newAttribution(tr)
	a.addCalls("core.", LevelCall, calls)
	r.spans = a.trace.Finish()
	callMetrics(r, r.spans, Median(tr.roundMs))
	r.set("bench.traced_op_p50_ms", Median(tr.roundMs))
	steps := 0
	for _, c := range calls {
		if c.Op == OpTrainLocal {
			steps++
		}
	}
	recorderCounts(r, before, len(tr.roundMs), steps)
	partitionMetrics(r, f)
}

// runTrainDense: Cora-sized dense features, three parties, in-process sync.
func runTrainDense(o Options) (*WorkloadResult, error) {
	r := newResult(TrainDense, o)
	spec := fleetSpec{generate: presetGraph("cora", 1), parties: 3, cfg: core.DefaultConfig()}
	rounds := o.scaled(100, 100) // round_p90_ms needs 100 rounds, whatever the window
	if o.Smoke {
		spec.generate, rounds = presetGraph("cora", 8), 12
	}
	f, setup, err := repeatSetup(15, func() (*fleet, error) { return spec.build(o.Seed) }, releaseFleet)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	clients, log := decorateIf(o.Trace, f.clients)
	before := telemetry.GlobalCounters()
	tr, err := runFed(fed.Config{Rounds: rounds}, clients)
	if err != nil {
		return nil, err
	}
	roundMetrics(r, tr)
	r.set("test_acc", tr.res.TestAtBestVal)
	reached := false
	for _, h := range tr.res.History {
		if h.ValAcc >= targetValAcc {
			r.set("time_to_target_s", h.End.Sub(tr.res.Start).Seconds())
			reached = true
			break
		}
	}
	if !reached {
		r.set("time_to_target_s", tr.elapsed.Seconds())
	}
	if !o.Smoke {
		r.check("target_reached", reached, "validation accuracy never reached %.2f", targetValAcc)
		syncChecks(r, f, tr, floorTrainDense)
	}
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	inProcessLayers(r, f, tr, log, before)
	rng := rand.New(rand.NewSource(o.Seed))
	big := f.largest()
	w := f.clients[0].Params().Get("w_in")
	replayDenseKernels(r, big.Graph.Features, w, rng, !o.Smoke)
	if err := replayStep(r, big, f.cfg, len(f.clients), rng); err != nil {
		return nil, err
	}
	return r, nil
}

// runTrainSparse: a 100k-node streamed graph at hidden 16, eight parties.
func runTrainSparse(o Options) (*WorkloadResult, error) {
	r := newResult(TrainSparse, o)
	cfg := core.DefaultConfig()
	cfg.Hidden = 16
	nodes, rounds := 100_000, o.scaled(22, 4)
	if o.Smoke {
		nodes, rounds = 4000, 3
	}
	spec := fleetSpec{generate: streamGraph(nodes), parties: 8, cfg: cfg}
	f, setup, err := repeatSetup(3, func() (*fleet, error) { return spec.build(o.Seed) }, releaseFleet)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	clients, log := decorateIf(o.Trace, f.clients)
	before := telemetry.GlobalCounters()
	tr, err := runFed(fed.Config{Rounds: rounds}, clients)
	if err != nil {
		return nil, err
	}
	roundMetrics(r, tr)
	r.set("test_acc", tr.res.TestAtBestVal)
	if !o.Smoke {
		syncChecks(r, f, tr, floorTrainSparse)
	}
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	inProcessLayers(r, f, tr, log, before)
	r.set("dataset.generate_stream_ms", f.generateMs)
	r.set("dataset.edges_per_s", float64(f.g.NumEdges())/(f.generateMs/1e3))
	if err := replaySparseKernels(r, f.largest(), cfg.Hidden, rand.New(rand.NewSource(o.Seed))); err != nil {
		return nil, err
	}
	return r, nil
}

// tcpFleet is a fleet whose parties each serve their client over loopback
// TCP to proxies on the coordinator side of a counting listener.
type tcpFleet struct {
	*fleet
	ln       *CountingListener
	proxies  []fed.Client
	partyLog *CallLog
	served   sync.WaitGroup
	stop     chan struct{} // closed by close: no further party dials
	once     sync.Once
}

// close ends the parties' serve loops by closing their connections and
// waits for them. It may be called more than once.
func (t *tcpFleet) close() {
	t.once.Do(func() {
		close(t.stop)
		t.ln.CloseConns()
		_ = t.ln.Close() // nothing left to accept; the listener is done either way
		t.served.Wait()
	})
}

func buildTCPFleet(spec fleetSpec, seed int64, trace bool, rec telemetry.Recorder) (*tcpFleet, error) {
	f, err := spec.build(seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan struct{}, len(f.clients))
	t := &tcpFleet{fleet: f, ln: &CountingListener{Listener: ln, Accepted: accepted}, stop: make(chan struct{})}
	if trace {
		t.partyLog = &CallLog{}
	}
	t.served.Add(len(f.clients))
	// Parties dial one after the other: AcceptClientsOpts numbers them in
	// connection order, and the order of the FedAvg sum must not depend on
	// a race, or two runs of one seed would round differently.
	go func() {
		for i, c := range f.clients {
			if trace {
				c = Decorate(c, t.partyLog)
			}
			go func(c fed.Client) {
				defer t.served.Done()
				// The loop ends with an EOF error when close() drops the
				// connection; a party that fails earlier surfaces as a
				// failed call on the coordinator side.
				_ = fed.ServeClientOpts(ln.Addr().String(), c, fed.ServeOptions{})
			}(c)
			select {
			case <-accepted:
			case <-t.stop:
				for range f.clients[i+1:] {
					t.served.Done() // parties that never dialled
				}
				return
			}
		}
	}()
	q8 := codec.Options{Kind: codec.Quant, Bits: 8}
	t.proxies, err = fed.AcceptClientsOpts(t.ln, len(f.clients), fed.TransportOptions{Codec: q8, Recorder: rec})
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// runFedTCPQ8: Cora, eight parties behind loopback TCP, q8 on the wire.
func runFedTCPQ8(o Options) (*WorkloadResult, error) {
	r := newResult(FedTCPQ8, o)
	spec := fleetSpec{generate: presetGraph("cora", 1), parties: 8, cfg: core.DefaultConfig()}
	rounds := o.scaled(tcpRounds, 4)
	if o.Smoke {
		spec.generate, rounds = presetGraph("cora", 8), 4
	}
	var agg *telemetry.Aggregator
	var rec telemetry.Recorder
	if o.Trace {
		agg = telemetry.NewAggregator()
		rec = agg
	}
	t, setup, err := repeatSetup(7,
		func() (*tcpFleet, error) { return buildTCPFleet(spec, o.Seed, o.Trace, rec) },
		(*tcpFleet).close)
	if err != nil {
		return nil, err
	}
	defer t.close()
	r.set("setup_s", setup)

	clients, coordLog := decorateIf(o.Trace, t.proxies)
	// The codec is negotiated on the transport only: fed.Run must not also
	// apply it in effigy, which it would for proxies hidden behind the
	// decorator (it recognises coded proxies by an unexported method).
	before := t.ln.Counts()
	tr, err := runFed(fed.Config{Rounds: rounds, Recorder: rec}, clients)
	if err != nil {
		return nil, err
	}
	wire := t.ln.Counts()
	roundMetrics(r, tr)
	r.set("test_acc", tr.res.TestAtBestVal)
	n := float64(len(tr.roundMs))
	up, down := float64(wire.Up-before.Up), float64(wire.Down-before.Down)
	r.set("wire_bytes_per_round", (up+down)/n)
	if !o.Smoke {
		syncChecks(r, t.fleet, tr, floorFedTCP)
	}
	dropped, failures := failureCounts(tr.res)
	r.check("no_failed_calls", dropped == 0 && failures == 0,
		"%d party-rounds dropped, %d client calls failed", dropped, failures)
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	rpcs := coordLog.Calls()
	a := newAttribution(tr)
	a.addCalls("rpc.", LevelRPC, rpcs)
	a.addCalls("core.", LevelCall, t.partyLog.Calls())
	r.spans = a.trace.Finish()
	nonparty := callMetrics(r, r.spans, Median(tr.roundMs))
	r.set("bench.traced_op_p50_ms", Median(tr.roundMs))
	r.set("transport.nonparty_ms_per_round", Median(nonparty))
	r.set("transport.wire_bytes_up_per_round", up/n)
	r.set("transport.wire_bytes_down_per_round", down/n)
	r.set("transport.rpcs_per_round", float64(len(rpcs))/n)
	r.set("transport.write_block_ms_per_round", float64(wire.WriteBlock-before.WriteBlock)/1e6/n)
	logical := float64(tr.res.TotalBytesUp + tr.res.TotalBytesDown)
	r.set("transport.logical_to_wire_ratio", logical/(up+down))
	r.set("transport.retries", float64(agg.Counter(fed.MetricRPCRetries)))
	r.set("fed.dropped_party_rounds", float64(dropped))
	r.set("fed.client_failures", float64(failures))
	r.note("fed.Run booked %d B up + %d B down (logical: with a negotiated codec it books Params.Bytes()); the sockets carried %.0f B up + %.0f B down",
		tr.res.TotalBytesUp, tr.res.TotalBytesDown, up, down)
	partitionMetrics(r, t.fleet)

	uploads, weights, err := oneMoreStep(t.fleet.clients, len(tr.roundMs))
	if err != nil {
		return nil, err
	}
	if err := replayCodec(r, uploads, weights, tr.res.FinalParams); err != nil {
		return nil, err
	}
	return r, nil
}

// tcpRounds is the round count of fed_tcp_q8 at the nominal window.
const tcpRounds = 50

// foldWatch is the public Observer seam used as a checker: it records the
// fewest updates any async round folded.
type foldWatch struct {
	rounds, minFill int
}

func (w *foldWatch) ObserveRound(_ obs.SpanContext, o obs.RoundObservation) {
	if w.rounds == 0 || o.BufferFill < w.minFill {
		w.minFill = o.BufferFill
	}
	w.rounds++
}

// runFedAsyncStraggler: a half-size Citeseer, eight parties, async buffered
// aggregation with two of them 40 ms slow on every call.
func runFedAsyncStraggler(o Options) (*WorkloadResult, error) {
	r := newResult(FedAsyncStraggler, o)
	spec := fleetSpec{generate: presetGraph("citeseer", 2), parties: 8, cfg: core.DefaultConfig()}
	rounds := o.scaled(asyncRounds, 100)
	slow := 40 * time.Millisecond
	if o.Smoke {
		spec.generate, rounds, slow = presetGraph("citeseer", 8), 20, 5*time.Millisecond
	}
	f, setup, err := repeatSetup(15, func() (*fleet, error) { return spec.build(o.Seed) }, releaseFleet)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	// The decorator sits inside the fault injector, so a call's time is the
	// party's work and the injected delay stays visible as the gap around it.
	clients, log := decorateIf(o.Trace, f.clients)
	clients = chaos.WrapFleet(clients, chaos.FleetConfig{Seed: dataSeed, SlowFraction: 0.25, SlowLatency: slow})
	var agg *telemetry.Aggregator
	watch := &foldWatch{}
	cfg := fed.Config{
		Rounds: rounds, Aggregation: fed.AggAsync, BufferK: 4, Policy: fed.DropRound, Observer: watch,
		// Scoring is not the workload: an evaluation waits out the injected
		// 40 ms on every idle slow party, a barrier of the fault injector's
		// making. Every round, it made round time bimodal (10 or 125 ms) and
		// rounds per second swing by half with how the two stragglers align.
		EvalEvery: 20,
	}
	if o.Trace {
		agg = telemetry.NewAggregator()
		cfg.Recorder = agg
	}
	before := telemetry.GlobalCounters()
	tr, err := runFed(cfg, clients)
	if err != nil {
		return nil, err
	}
	roundMetrics(r, tr)
	r.check("every_round_folds", watch.rounds == len(tr.roundMs) && watch.minFill >= 1,
		"%d of %d rounds observed, fewest updates folded in a round %d", watch.rounds, len(tr.roundMs), watch.minFill)
	if !o.Smoke {
		r.check("val_floor", tr.res.BestValAcc >= floorAsync,
			"best validation accuracy %.4f is below the floor %.2f", tr.res.BestValAcc, floorAsync)
	}
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	// An update older than MaxStaleness is evicted and booked as a dropped
	// party-round: on this workload that is the mechanism under test, so
	// the counts are reported and not held to zero.
	dropped, failures := failureCounts(tr.res)
	inProcessLayers(r, f, tr, log, before)
	r.note("async jobs of different parties run different operations at once, so the per-operation coverages add up to more than the round")
	if h, ok := agg.Histogram(fed.MetricAsyncStaleness); ok {
		r.set("fed.async_staleness_mean", h.Mean)
	}
	r.set("fed.async_evicted", float64(agg.Counter(fed.MetricAsyncEvicted)))
	r.set("fed.async_stalls", float64(agg.Counter(fed.MetricAsyncStalls)))
	// Arrival order decides what folds when, so accuracy does not repeat at
	// one seed (0.62 against 0.65 between two sets of three runs): reported
	// here, guarded by the floor, and kept out of the end-to-end list.
	r.set("fed.async_test_acc", tr.res.TestAtBestVal)
	r.set("fed.dropped_party_rounds", float64(dropped))
	r.set("fed.client_failures", float64(failures))
	return r, nil
}

// asyncRounds is the logical-round count of fed_async_straggler at the
// nominal window.
const asyncRounds = 500

// Run runs one workload in this process.
func Run(name string, o Options) (*WorkloadResult, error) {
	if o.Seconds <= 0 {
		o.Seconds = nominalSeconds
	}
	switch name {
	case TrainDense:
		return runTrainDense(o)
	case TrainSparse:
		return runTrainSparse(o)
	case FedTCPQ8:
		return runFedTCPQ8(o)
	case FedAsyncStraggler:
		return runFedAsyncStraggler(o)
	case ServeZipf:
		return runServeZipf(o)
	case ServeUniformSwap:
		return runServeUniformSwap(o)
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

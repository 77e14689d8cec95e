package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/serve"
	"fedomd/internal/telemetry"
)

// latencyLimit is the limit a classify must meet, from its due time, to
// count towards goodput.
const latencyLimit = 5 * time.Millisecond

// Request outcomes.
const (
	outOK uint8 = iota
	outError
	outOverloaded
	outWrong
)

// gaugeLog is the Recorder of a traced serving run: an Aggregator that also
// keeps every queue-depth reading, because a gauge's last value says nothing
// about its tail.
type gaugeLog struct {
	*telemetry.Aggregator
	mu     sync.Mutex
	depths []float64
}

func (g *gaugeLog) Gauge(name string, v float64) {
	if name == serve.MetricQueueDepth {
		g.mu.Lock()
		g.depths = append(g.depths, v)
		g.mu.Unlock()
	}
	g.Aggregator.Gauge(name, v) //fedomdvet:ignore forwards the caller's key unchanged; the constant-key rule binds the call sites this Recorder is handed to
}

// serveRig is a generated serving problem: the node table's graph, two
// parameter sets, and per parameter set the class every node must get,
// computed by direct InferInto outside the service.
type serveRig struct {
	g      *graph.Graph
	spec   *fed.ModelSpec
	params [2]*nn.Params
	ref    [2][]int
	svc    *serve.Service
	rec    *gaugeLog

	// Swap workload only.
	dir     string
	watcher *serve.Watcher

	generateMs float64
}

func (s *serveRig) datasetMetrics(r *WorkloadResult) {
	r.set("dataset.generate_stream_ms", s.generateMs)
	r.set("dataset.edges_per_s", float64(s.g.NumEdges())/(s.generateMs/1e3))
}

func (s *serveRig) close() {
	if s.watcher != nil {
		s.watcher.Stop()
	}
	s.svc.Close()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch checkpoints; nothing to do about a failure
	}
}

// refFor maps a response's ModelRound to the parameter set that produced it:
// round k was written from params[k%2].
func (s *serveRig) refFor(round int) []int { return s.ref[round%2] }

// newServeRig generates the table and parameter sets. With swap set the
// model reaches the service the way production does — checkpoint file,
// Watcher, LoadCheckpointFile, InferencerFromCheckpoint, Swap; otherwise it
// is built and swapped in directly.
func newServeRig(o Options, nodes int, swap bool) (*serveRig, error) {
	t0 := time.Now()
	g, err := streamGraph(nodes)(dataSeed)
	if err != nil {
		return nil, err
	}
	const hidden, layers = 64, 2
	s := &serveRig{g: g, generateMs: msSince(t0), spec: &fed.ModelSpec{
		SpecVersion: fed.SpecVersion, Model: "fedomd",
		Features: g.NumFeatures(), Classes: g.NumClasses,
		Hidden: hidden, HiddenLayers: layers, SpectralBound: true,
	}}
	for i := range s.params {
		m, err := nn.NewOrthoGCN(rand.New(rand.NewSource(o.Seed+int64(i)+1)), g.NumFeatures(), hidden, g.NumClasses, layers, 0)
		if err != nil {
			return nil, err
		}
		s.params[i] = m.Params()
	}
	cfg := serve.Config{CacheSize: 8192, QueueDepth: 4096}
	if o.Trace {
		s.rec = &gaugeLog{Aggregator: telemetry.NewAggregator()}
		cfg.Recorder = s.rec
	}
	s.svc = serve.New(cfg)
	if !swap {
		inf, err := serve.BuildInferencer(s.spec, s.params[1], g)
		if err != nil {
			s.close()
			return nil, err
		}
		s.svc.Swap(inf, 1)
		return s, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		s.close()
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(".bench_build", "swap-"); err != nil {
		s.close()
		return nil, err
	}
	if err := s.writeCheckpoint(1); err != nil {
		s.close()
		return nil, err
	}
	// The watcher's own timer never fires within a run; the harness calls
	// Poll when it has put a file in place, so the moment is known.
	var loadErr atomic.Pointer[error]
	s.watcher = serve.WatchCheckpoint(s.svc, s.checkpointPath(), time.Hour, g, func(err error) { loadErr.Store(&err) })
	for {
		if _, ok := s.svc.ModelRound(); ok {
			return s, nil
		}
		if e := loadErr.Load(); e != nil {
			s.close()
			return nil, *e
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *serveRig) checkpointPath() string { return filepath.Join(s.dir, "model.ckpt") }

// writeCheckpoint puts the checkpoint of the given round in place
// (write-to-temp then rename, as the training side does).
func (s *serveRig) writeCheckpoint(round int) error {
	return fed.FileCheckpointer(s.checkpointPath())(fed.NewModelCheckpoint(round, s.params[round%2], s.spec))
}

// computeRefs fills the reference classes; it is the checker's work, not the
// system's, and runs outside the timed set-up.
func (s *serveRig) computeRefs() error {
	all := make([]int, s.g.NumNodes())
	for i := range all {
		all[i] = i
	}
	for i := range s.params {
		inf, err := serve.BuildInferencer(s.spec, s.params[i], s.g)
		if err != nil {
			return err
		}
		out := mat.New(len(all), inf.Classes())
		if err := inf.InferInto(out, all); err != nil {
			return err
		}
		s.ref[i] = mat.ArgmaxRows(out)
	}
	return nil
}

// phase is one open-loop stretch at one rate and its per-request outcomes.
type phase struct {
	rate     float64
	window   time.Duration
	due      []time.Duration
	late     []time.Duration
	lat      []time.Duration // completion minus due time
	outcome  []uint8
	inflight int64 // requests still outstanding when the window closed
	start    time.Time
}

// runPhase drives one open-loop phase: Poisson arrivals at rate for window,
// request i asking for nodes(i). Every request runs in its own goroutine
// because Classify blocks; the generator itself never does.
func (s *serveRig) runPhase(rng *rand.Rand, rate float64, window time.Duration, nodes func(i int) []int, seen func(round int, at time.Time)) *phase {
	p := &phase{rate: rate, window: window, due: PoissonSchedule(rng, rate, window)}
	n := len(p.due)
	p.lat = make([]time.Duration, n)
	p.outcome = make([]uint8, n)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	ctx := context.Background()
	wg.Add(n)
	p.start = time.Now()
	p.late = OpenLoop(wallClock{}, p.start, p.due, func(i int, due time.Time) {
		inflight.Add(1)
		go func() {
			defer wg.Done()
			ids := nodes(i)
			res, err := s.svc.Classify(ctx, ids, false)
			end := time.Now()
			inflight.Add(-1)
			p.lat[i] = end.Sub(due)
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				p.outcome[i] = outOverloaded
			case err != nil:
				p.outcome[i] = outError
			default:
				ref := s.refFor(res.ModelRound)
				for k, id := range ids {
					if res.Classes[k] != ref[id] {
						p.outcome[i] = outWrong
						break
					}
				}
				if seen != nil {
					seen(res.ModelRound, end)
				}
			}
		}()
	})
	p.inflight = inflight.Load()
	wg.Wait()
	return p
}

// keepsUp reports whether the service kept up with the phase's rate: p99
// within the limit, nothing refused or failed, no more than the limit's worth
// of requests outstanding when the window closed — and the generator itself
// on time, or the phase says nothing about the service.
func (p *phase) keepsUp() bool {
	_, overloaded, failed := p.good()
	limitMs := float64(latencyLimit) / 1e6
	return Percentile(durationsMs(p.late), 99) <= 1 && Percentile(durationsMs(p.lat), 99) <= limitMs &&
		overloaded+failed == 0 && float64(p.inflight) <= p.rate*latencyLimit.Seconds()
}

// good counts requests answered correctly within the latency limit.
func (p *phase) good() (good, overloaded, failed int) {
	for i, o := range p.outcome {
		switch {
		case o == outOverloaded:
			overloaded++
		case o != outOK:
			failed++
		case p.lat[i] <= latencyLimit:
			good++
		}
	}
	return good, overloaded, failed
}

// sustainedMetrics fills the end-to-end serving metrics from the sustained
// phase. Refusals and errors are failed operations there: the rate was
// chosen so that none occur.
// tailPct is the percentile op_tail_ms reads on this workload.
func sustainedMetrics(r *WorkloadResult, p *phase, tailPct float64) {
	n := len(p.due)
	good, overloaded, failed := p.good()
	r.Attempted += n
	r.Failed += overloaded + failed
	r.check("answers_match_reference", failed == 0 && overloaded == 0,
		"of %d requests %d errored or got a class other than the reference argmax, %d were refused", n, failed, overloaded)
	lat := durationsMs(p.lat)
	p50, p99 := Percentile(lat, 50), Percentile(lat, 99)
	share := float64(good) / float64(n)
	r.set("classify_p50_ms", p50)
	if tailPct == 99 {
		r.set("classify_p99_ms", p99)
	} else if r.Traced {
		// Where p99 does not repeat (1.5 against 2.6 ms between two sets
		// of three runs) it is a per-layer reading, by the issue's rule.
		r.set("serve.classify_p99_ms", p99)
	}
	r.set("goodput_share", share)
	r.set("op_p50_ms", p50)
	r.set("op_tail_ms", Percentile(lat, tailPct))
	r.set("ops_per_s", float64(good)/p.window.Seconds())
	// Lateness invalidates a measurement, not an answer, so it is flagged
	// and not counted as a failed operation. On the swap workload a table
	// rebuild takes every processor, the generator's included — it lives in
	// the same process by design — and the wait is charged to the requests,
	// whose latency counts from the due time.
	late := Percentile(durationsMs(p.late), 99)
	if late > 1 {
		r.note("INVALID as a steady-state measurement: the open-loop generator fired p99 %.3f ms late (limit 1 ms)", late)
	}
	r.note("sustained phase: %d requests at %.0f/s over %v, latency from due time; the sample supports p%g; generator p99 lateness %.3f ms",
		n, p.rate, p.window, TailPercentile(n), late)
	if r.Traced {
		r.set("bench.gen_late_p99_ms", late)
		r.set("bench.traced_op_p50_ms", p50)
	}
}

// recorderMetrics turns the service's own counts over the sustained phase
// into per-layer metrics. before is a Snapshot of the counters at its start.
func (s *serveRig) recorderMetrics(r *WorkloadResult, before map[string]int64, p *phase) {
	now, _, hists := s.rec.Snapshot()
	d := func(name string) float64 { return float64(now[name] - before[name]) }
	if probes := d(serve.MetricCacheHits) + d(serve.MetricCacheMisses); probes > 0 {
		r.set("serve.cache_hit_ratio", d(serve.MetricCacheHits)/probes)
	}
	if h, ok := hists[serve.MetricBatchSize]; ok {
		r.set("serve.avg_batch_rows", h.Mean)
	}
	r.set("serve.batches_per_s", d(serve.MetricBatches)/p.window.Seconds())
	if reqs := d(serve.MetricRequests); reqs > 0 {
		r.set("serve.overload_share", d(serve.MetricOverload)/reqs)
	}
	s.rec.mu.Lock()
	r.set("serve.queue_depth_p99", Percentile(s.rec.depths, 99))
	s.rec.mu.Unlock()
}

func (s *serveRig) counters() map[string]int64 {
	if s.rec == nil {
		return nil
	}
	c, _, _ := s.rec.Snapshot()
	return c
}

// replayServeLayers times the head's forward on 64 uniform rows and one
// 16-node JSON request through the HTTP handler.
func (s *serveRig) replayServeLayers(r *WorkloadResult, rng *rand.Rand) error {
	var inf *nn.Inferencer
	var err error
	r.set("nn.inferencer_build_ms", replayMsN(5, func() { inf, err = serve.BuildInferencer(s.spec, s.params[1], s.g) }))
	if err != nil {
		return err
	}
	const rows = 64
	ids := make([]int, rows)
	out := mat.New(rows, inf.Classes())
	r.set("nn.infer_us_per_row", 1e3/rows*replayMs(func() {
		for i := range ids {
			ids[i] = rng.Intn(inf.Nodes())
		}
		err = inf.InferInto(out, ids)
	}))
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.ClassifyRequest{Nodes: ids[:16]})
	if err != nil {
		return err
	}
	h := serve.Handler(s.svc)
	status := http.StatusOK
	r.set("serve.http_handler_us", 1e3*replayMs(func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			status = w.Code
		}
	}))
	if status != http.StatusOK {
		return fmt.Errorf("bench: /v1/classify answered %d", status)
	}
	return nil
}

// serveSizes are the frozen sizes of the two serving workloads.
type serveSizes struct {
	nodes     int
	rate      float64
	sustained time.Duration
}

// runServeZipf: single-node classifies with Zipf(1.1) ids at 50k/s, then a
// ladder of rates to find where the service stops keeping up.
func runServeZipf(o Options) (*WorkloadResult, error) {
	r := newResult(ServeZipf, o)
	sz := serveSizes{nodes: 100_000, rate: 50_000, sustained: o.duration(8 * time.Second)}
	ladder, step := []float64{100_000, 150_000, 200_000}, o.duration(1200*time.Millisecond)
	if o.Smoke {
		sz = serveSizes{nodes: 4000, rate: 2000, sustained: 300 * time.Millisecond}
		ladder, step = []float64{4000}, 100*time.Millisecond
	}
	s, setup, err := repeatSetup(5, func() (*serveRig, error) { return newServeRig(o, sz.nodes, false) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("setup_s", setup)
	if err := s.computeRefs(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.Seed + 100))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.nodes-1))
	ids := make([]int, int(sz.rate*sz.sustained.Seconds()*1.1)+int(ladder[len(ladder)-1]*step.Seconds()*1.1)+64)
	for i := range ids {
		ids[i] = int(zipf.Uint64())
	}
	one := func(i int) []int { return ids[i%len(ids) : i%len(ids)+1] }

	// Let the cache fill and the pools warm before timing: users of a
	// long-running service do not pay that on every request.
	s.runPhase(rng, sz.rate, sz.sustained/8, one, nil)
	before := s.counters()
	p := s.runPhase(rng, sz.rate, sz.sustained, one, nil)
	// p99 sits inside the garbage collector's share of requests, which a
	// run samples three or four times (1.3 to 2.8 ms over ten runs); p90
	// repeats within 2 %.
	sustainedMetrics(r, p, 90)
	if o.Trace {
		s.recorderMetrics(r, before, p)
	}

	// The ladder is a probe past saturation: refusals there are the
	// measurement, not failed operations, and are not counted as such.
	maxOK := 0.0
	if p.keepsUp() {
		maxOK = sz.rate
	}
	steps := []*phase{p}
	for _, rate := range ladder {
		lp := s.runPhase(rng, rate, step, one, nil)
		steps = append(steps, lp)
		if lp.keepsUp() && rate > maxOK {
			maxOK = rate
		}
		_, overloaded, failed := lp.good()
		r.note("ladder %.0f/s: %d sent, p50 %.3f ms, p99 %.3f ms, %d refused, %d failed, %d outstanding at the end, generator p99 lateness %.3f ms, kept up: %v",
			rate, len(lp.due), Percentile(durationsMs(lp.lat), 50), Percentile(durationsMs(lp.lat), 99), overloaded, failed,
			lp.inflight, Percentile(durationsMs(lp.late), 99), lp.keepsUp())
	}
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	r.set("serve.max_rate_ok_qps", maxOK)
	s.datasetMetrics(r)
	if err := s.replayServeLayers(r, rng); err != nil {
		return nil, err
	}
	r.spans = serveSpans(steps, nil)
	return r, nil
}

// swapEvent is one hot swap: when the file was in place, how long Poll took
// to build and install the model, and when the first response carrying the
// new round completed.
type swapEvent struct {
	round           int
	placed, visible time.Time
	pollMs          float64
}

// runServeUniformSwap: 16-node classifies with uniform ids at 10k/s while
// the checkpoint is replaced every second, then a closed-loop bulk sweep.
// The rate is what the queue can hold through a rebuild: at 20k/s a third of
// a second of arrivals overflowed its 4096 slots in one run of twenty.
func runServeUniformSwap(o Options) (*WorkloadResult, error) {
	r := newResult(ServeUniformSwap, o)
	sz := serveSizes{nodes: 100_000, rate: 10_000, sustained: o.duration(8500 * time.Millisecond)}
	every, bulkFor := 1000*time.Millisecond, o.duration(2500*time.Millisecond)
	if o.Smoke {
		sz = serveSizes{nodes: 4000, rate: 1000, sustained: 400 * time.Millisecond}
		every, bulkFor = 100*time.Millisecond, 100*time.Millisecond
	}
	s, setup, err := repeatSetup(5, func() (*serveRig, error) { return newServeRig(o, sz.nodes, true) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("setup_s", setup)
	if err := s.computeRefs(); err != nil {
		return nil, err
	}

	const perReq = 16
	rng := rand.New(rand.NewSource(o.Seed + 100))
	ids := make([]int, (int(sz.rate*sz.sustained.Seconds()*1.1)+64)*perReq)
	for i := range ids {
		ids[i] = rng.Intn(sz.nodes)
	}
	sixteen := func(i int) []int {
		at := i * perReq % (len(ids) - perReq)
		return ids[at : at+perReq]
	}

	s.runPhase(rng, sz.rate, sz.sustained/8, sixteen, nil)

	// The swapper replaces the checkpoint on a timer while requests flow.
	var want atomic.Int64   // round of the swap in progress
	var seenAt atomic.Int64 // unix nanos of the first response carrying it
	seen := func(round int, at time.Time) {
		if int64(round) == want.Load() {
			seenAt.CompareAndSwap(0, at.UnixNano())
		}
	}
	var swaps []swapEvent
	var swapErr error
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for round := 2; ; round++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			seenAt.Store(0)
			want.Store(int64(round))
			if swapErr = s.writeCheckpoint(round); swapErr != nil {
				return
			}
			ev := swapEvent{round: round, placed: time.Now()}
			if swapErr = s.watcher.Poll(); swapErr != nil {
				return
			}
			ev.pollMs = msSince(ev.placed)
			for seenAt.Load() == 0 {
				select {
				case <-stop:
					return
				default:
					time.Sleep(200 * time.Microsecond)
				}
			}
			ev.visible = time.Unix(0, seenAt.Load())
			swaps = append(swaps, ev)
		}
	}()
	before := s.counters()
	p := s.runPhase(rng, sz.rate, sz.sustained, sixteen, seen)
	close(stop)
	<-done
	if swapErr != nil {
		return nil, swapErr
	}
	// One request in six waits for a table rebuild, so this workload's p90
	// sits on the cliff between the two regimes (11 ms ± 56 % over ten
	// runs; p95 ± 24 %). Its p99 lies well inside the stalls and repeats
	// best (± 9 to 18 %).
	sustainedMetrics(r, p, 99)
	var visible, poll []float64
	for _, ev := range swaps {
		visible = append(visible, float64(ev.visible.Sub(ev.placed))/1e6)
		poll = append(poll, ev.pollMs)
	}
	r.check("swaps_happened", len(swaps) > 0, "no hot swap completed during the sustained phase")
	r.set("swap_visible_ms", Median(visible))
	r.note("%d hot swaps during the sustained phase; swap_visible_ms is their median", len(swaps))
	if o.Trace {
		s.recorderMetrics(r, before, p)
	}

	// Bulk sweep: a closed loop of nproc callers, every node once per
	// sweep, 256 per request, repeated until the bulk window has passed.
	const chunk = 256
	callers := runtime.GOMAXPROCS(0)
	var next, rows, wrong atomic.Int64
	var wg sync.WaitGroup
	chunks := (sz.nodes + chunk - 1) / chunk
	deadline := time.Now().Add(bulkFor)
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := make([]int, 0, chunk)
			for time.Now().Before(deadline) {
				lo := int(next.Add(1)-1) % chunks * chunk
				req = req[:0]
				for id := lo; id < lo+chunk && id < sz.nodes; id++ {
					req = append(req, id)
				}
				res, err := s.svc.Classify(context.Background(), req, false)
				if err != nil {
					wrong.Add(1)
					continue
				}
				ref := s.refFor(res.ModelRound)
				for k, id := range req {
					if res.Classes[k] != ref[id] {
						wrong.Add(1)
						break
					}
				}
				rows.Add(int64(len(req)))
			}
		}()
	}
	wg.Wait()
	bulkS := time.Since(t0).Seconds()
	r.Attempted += int(next.Load())
	r.check("bulk_matches_reference", wrong.Load() == 0, "%d bulk requests errored or disagreed with the reference", wrong.Load())
	r.set("bulk_rows_per_s", float64(rows.Load())/bulkS)
	r.note("bulk sweep: %d rows in %.2fs from %d closed-loop callers, %d per request", rows.Load(), bulkS, callers, chunk)
	r.set("peak_rss_mb", PeakRSSMB())
	if !o.Trace {
		return r, nil
	}

	s.datasetMetrics(r)
	r.set("serve.swap_build_ms", Median(poll))
	r.set("serve.swaps", float64(s.watcher.Swaps()))
	path := s.checkpointPath()
	var loadErr error
	r.set("fed.checkpoint_load_ms", replayMs(func() { _, loadErr = fed.LoadCheckpointFile(path) }))
	if loadErr != nil {
		return nil, loadErr
	}
	if err := s.replayServeLayers(r, rng); err != nil {
		return nil, err
	}
	r.spans = serveSpans([]*phase{p}, swaps)
	return r, nil
}

// spanSample is the share of requests that get spans: one in 64 keeps a
// 12-second trace of half a million requests small enough to read.
const spanSample = 64

// serveSpans builds the spans of a serving run: per phase a round-level
// span, per sampled request a call with its generator lateness as a part,
// per swap a round-level span from file in place to first visible answer.
func serveSpans(phases []*phase, swaps []swapEvent) []Span {
	t := NewTrace(phases[0].start)
	last := phases[len(phases)-1]
	t.Add("run", LevelRun, "", -1, phases[0].start, last.start.Add(last.window+time.Second))
	for _, p := range phases {
		t.Add(fmt.Sprintf("serve.phase_%.0f_per_s", p.rate), LevelRound, "", -1, p.start, p.start.Add(p.window))
		for i := 0; i < len(p.due); i += spanSample {
			due := p.start.Add(p.due[i])
			t.Add("serve.classify", LevelCall, "client", i, due, due.Add(p.lat[i]))
			t.Add("bench.gen_late", LevelPart, "client", i, due, due.Add(p.late[i]))
		}
	}
	for _, ev := range swaps {
		t.Add("serve.swap_visible", LevelRPC, "watcher", ev.round, ev.placed, ev.visible)
		t.Add("serve.watcher_poll", LevelCall, "watcher", ev.round, ev.placed, ev.placed.Add(time.Duration(ev.pollMs*1e6)))
	}
	return t.Finish()
}

package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/partition"
	"fedomd/internal/telemetry"
)

// Options selects one run of one workload.
type Options struct {
	// Seed derives every input: datasets, partitions, initial weights,
	// fault schedules, request streams.
	Seed int64
	// Seconds is the nominal measured window. Round counts and phase
	// lengths are frozen for nominalSeconds and scale linearly with it.
	Seconds float64
	// Trace attaches the decorators, the conn wrapper's consumers and the
	// Recorder, records spans and runs the replays.
	Trace bool
	// Smoke shrinks every workload to toy size.
	Smoke bool
}

// nominalSeconds is the window the frozen sizes below were probed for on
// the 2-core reference box; BENCHMARK.json's run_seconds equals it.
const nominalSeconds = 12

// scaled multiplies a count frozen for the nominal window by the requested
// window, never going below min.
func (o Options) scaled(n, min int) int {
	v := int(math.Round(float64(n) * o.Seconds / nominalSeconds))
	if v < min {
		v = min
	}
	return v
}

func (o Options) duration(nominal time.Duration) time.Duration {
	return time.Duration(float64(nominal) * o.Seconds / nominalSeconds)
}

// fleet is a generated federated problem: the global graph, its parties and
// one FedOMD client per party, with the set-up stages timed separately.
type fleet struct {
	g       *graph.Graph
	parties []partition.Party
	cfg     core.Config
	clients []fed.Client

	generateMs, louvainMs, newClientMs float64
}

// fleetSpec says how to build a fleet.
type fleetSpec struct {
	generate func(seed int64) (*graph.Graph, error)
	parties  int
	cfg      core.Config
}

// presetGraph generates a paper dataset stand-in at the given divisor.
func presetGraph(name string, divisor int) func(int64) (*graph.Graph, error) {
	return func(seed int64) (*graph.Graph, error) {
		cfg, err := dataset.Preset(name)
		if err != nil {
			return nil, err
		}
		return dataset.Generate(dataset.Scaled(cfg, divisor), seed)
	}
}

// streamConfig is the scaledemo recipe at the given node count.
func streamConfig(nodes int) dataset.Config {
	return dataset.Config{
		Name: "bench-stream", Nodes: nodes, Edges: 8 * nodes, Classes: 8, Features: 32,
		CommunitiesPerClass: 4, Homophily: 0.85, ActiveFeatures: 6, SignalRatio: 0.9,
	}
}

func streamGraph(nodes int) func(int64) (*graph.Graph, error) {
	return func(seed int64) (*graph.Graph, error) {
		return dataset.GenerateStream(streamConfig(nodes), seed)
	}
}

// dataSeed generates every workload's graph, split and partition. They are
// part of a workload's definition, as Cora is Cora: at a 1 % label rate the
// draw of the labelled nodes alone moves accuracy between 0.69 and 0.93,
// which no floor or bound survives. The run's seed draws what a rerun of an
// experiment redraws: initial weights, dropout, fault victims, traffic.
const dataSeed = 1

// build generates the graph, splits it at the paper's 1/20/20 % rates, cuts
// it with Louvain and constructs the clients, whose weights derive from seed.
func (s fleetSpec) build(seed int64) (*fleet, error) {
	f := &fleet{cfg: s.cfg}
	t0 := time.Now()
	g, err := s.generate(dataSeed)
	if err != nil {
		return nil, err
	}
	f.generateMs = msSince(t0)
	rng := rand.New(rand.NewSource(dataSeed + 1))
	if err := g.Split(rng, 0.01, 0.2, 0.2); err != nil {
		return nil, err
	}
	t0 = time.Now()
	parties, err := partition.LouvainParties(g, s.parties, 1.0, rng)
	if err != nil {
		return nil, err
	}
	f.louvainMs = msSince(t0)
	t0 = time.Now()
	for i, p := range parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		c, err := core.NewClient(fmt.Sprintf("party-%d", i), p.Graph, s.cfg, seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		f.parties = append(f.parties, p)
		f.clients = append(f.clients, c)
	}
	f.newClientMs = msSince(t0) / float64(len(f.clients))
	f.g = g
	return f, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// largest returns the party with the most nodes: under a barrier it sets the
// round, so the replays use its shapes.
func (f *fleet) largest() partition.Party {
	best := f.parties[0]
	for _, p := range f.parties[1:] {
		if p.Graph.NumNodes() > best.Graph.NumNodes() {
			best = p
		}
	}
	return best
}

// repeatSetup sets up reps times and returns the last product with the median
// set-up time. Earlier products are released before the next one is built, so
// the resident-set peak stays that of one set-up.
func repeatSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(kept)
			var zero T
			kept = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = v
	}
	return kept, Median(times), nil
}

// trainRun is the outcome of one fed.Run with what the metrics need.
type trainRun struct {
	res     *fed.Result
	elapsed time.Duration
	roundMs []float64
}

func runFed(cfg fed.Config, clients []fed.Client) (*trainRun, error) {
	t0 := time.Now()
	res, err := fed.Run(cfg, clients)
	if err != nil {
		return nil, err
	}
	tr := &trainRun{res: res, elapsed: time.Since(t0)}
	for _, h := range res.History {
		tr.roundMs = append(tr.roundMs, float64(h.End.Sub(h.Start))/1e6)
	}
	return tr, nil
}

// roundMetrics fills the end-to-end metrics every training workload shares,
// both under their own names and under the gate names.
func roundMetrics(r *WorkloadResult, tr *trainRun) {
	n := len(tr.roundMs)
	r.Attempted += n
	p50 := Median(tr.roundMs)
	perS := float64(n) / tr.elapsed.Seconds()
	r.set("round_p50_ms", p50)
	r.set("rounds_per_s", perS)
	r.set("op_p50_ms", p50)
	r.set("ops_per_s", perS)
	r.set("op_tail_ms", gateTail(tr.roundMs))
	if TailPercentile(n) >= 90 {
		r.set("round_p90_ms", Percentile(tr.roundMs, 90))
	}
	r.note("%d rounds in %.2fs; the sample supports p%g (the highest percentile with at least 10 samples beyond it); best validation accuracy %.4f at round %d",
		n, tr.elapsed.Seconds(), TailPercentile(n), tr.res.BestValAcc, tr.res.BestRound)
}

// analyticUploadPerRound is what one sync FedOMD round must upload: every
// party's weights, plus per hidden layer a mean and MaxOrder-1 central
// moments of width Hidden, plus the two sample counts of the exchange.
func analyticUploadPerRound(f *fleet, paramBytes int) int64 {
	stats := 8*f.cfg.HiddenLayers*f.cfg.Hidden*f.cfg.MaxOrder + 16
	return int64(len(f.clients)) * int64(paramBytes+stats)
}

// syncChecks are the correctness checks of a barriered run.
func syncChecks(r *WorkloadResult, f *fleet, tr *trainRun, valFloor float64) {
	bad := -1
	for _, h := range tr.res.History {
		if math.IsNaN(h.TrainLoss) || math.IsInf(h.TrainLoss, 0) {
			bad = h.Round
			break
		}
	}
	r.check("finite_loss", bad < 0, "round %d reports a non-finite training loss", bad)
	r.check("val_floor", tr.res.BestValAcc >= valFloor,
		"best validation accuracy %.4f is below the floor %.2f", tr.res.BestValAcc, valFloor)
	want := analyticUploadPerRound(f, tr.res.FinalParams.Bytes()) * int64(len(tr.res.History))
	r.check("upload_bytes", tr.res.TotalBytesUp == want,
		"runtime booked %d upload bytes, analytic size is %d", tr.res.TotalBytesUp, want)
}

// failureCounts reports parties dropped from rounds and failed calls; both
// must be zero on workloads chosen so that no operation fails.
func failureCounts(res *fed.Result) (droppedRounds, failures int) {
	for _, h := range res.History {
		droppedRounds += h.Dropped
	}
	for _, n := range res.ClientFailures {
		failures += n
	}
	return droppedRounds, failures
}

// attribution turns the calls a decorated fleet logged during a run into
// spans under the run's rounds.
type attribution struct {
	trace  *Trace
	rounds []fed.RoundStats
}

func newAttribution(tr *trainRun) *attribution {
	a := &attribution{trace: NewTrace(tr.res.Start), rounds: tr.res.History}
	a.trace.Add("run", LevelRun, "", -1, tr.res.Start, tr.res.End)
	for _, h := range tr.res.History {
		a.trace.Add("fed.round", LevelRound, "", h.Round, h.Start, h.End)
	}
	return a
}

// addCalls adds logged calls as spans: level is LevelCall for calls into a
// party and LevelRPC for coordinator-side calls across a transport.
func (a *attribution) addCalls(prefix string, level int, calls []Call) {
	for _, c := range calls {
		a.trace.Add(prefix+c.Op, level, c.Party, a.roundOf(c.Start), c.Start, c.End)
	}
}

// roundOf finds the round whose interval holds t, or -1.
func (a *attribution) roundOf(t time.Time) int {
	i := sort.Search(len(a.rounds), func(i int) bool { return a.rounds[i].End.After(t) })
	if i < len(a.rounds) && !a.rounds[i].Start.After(t) {
		return a.rounds[i].Round
	}
	return -1
}

// perRound groups the spans of one level by round id, keeping start order.
func perRound(spans []Span, level int) map[int][]Span {
	out := make(map[int][]Span)
	for _, s := range spans {
		if s.Level == level && s.Round >= 0 {
			out[s.Round] = append(out[s.Round], s)
		}
	}
	return out
}

// callMetrics sets, from finished spans, the core.* medians per call,
// fed.round_self_ms, fed.barrier_idle_share and the accounting of a round.
// It returns the per-round time no party handler covers, which is the
// transport's and the coordinator's share on a networked run.
func callMetrics(r *WorkloadResult, spans []Span, roundP50 float64) (nonparty []float64) {
	byOp := map[string][]float64{}
	for _, s := range spans {
		if s.Level == LevelCall {
			byOp[s.Name] = append(byOp[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for op, metric := range map[string]string{
		"core." + OpTrainLocal:     "core.train_local_ms",
		"core." + OpLocalMeans:     "core.local_means_ms",
		"core." + OpCentralMoments: "core.central_moments_ms",
		"core." + OpSetParams:      "core.set_params_ms",
		"core." + OpEval:           "core.eval_ms",
	} {
		r.set(metric, Median(byOp[op]))
	}

	// Self time of a round is the part of it that its children — party
	// calls, or RPCs on a networked run — do not cover: the coordinator's
	// own work (fold, statistics aggregation, bookkeeping). Per operation,
	// the covered part is the union of that operation's calls, so parties
	// running side by side are not counted twice.
	calls := perRound(spans, LevelCall)
	var self, idle []float64
	covered := map[string][]float64{}
	for _, s := range spans {
		if s.Level != LevelRound {
			continue
		}
		self = append(self, float64(s.Self)/1e6)
		inRound := calls[s.Round]
		busy := map[string]float64{}
		ops := map[string][]Span{}
		for _, c := range inRound {
			busy[c.Party] += float64(c.End - c.Start)
			ops[c.Name] = append(ops[c.Name], c)
		}
		var sum, max float64
		for _, b := range busy {
			sum += b
			if b > max {
				max = b
			}
		}
		if max > 0 {
			idle = append(idle, 1-sum/float64(len(busy))/max)
		}
		for name, list := range ops {
			covered[name] = append(covered[name], float64(coverage(list, s.Start, s.End))/1e6)
		}
		nonparty = append(nonparty, float64(s.End-s.Start-coverage(inRound, s.Start, s.End))/1e6)
	}
	r.set("fed.round_self_ms", Median(self))
	r.set("fed.barrier_idle_share", Median(idle))

	names := make([]string, 0, len(covered))
	for n := range covered {
		names = append(names, n)
	}
	sort.Strings(names)
	total := Median(nonparty)
	line := fmt.Sprintf("a round (p50 %.2f ms) is covered by", roundP50)
	for _, n := range names {
		m := Median(covered[n])
		total += m
		line += fmt.Sprintf(" %s %.2f +", n, m)
	}
	line += fmt.Sprintf(" fed.round_self %.2f + transport (no party handler running, less self) %.2f ms",
		Median(self), Median(nonparty)-Median(self))
	if roundP50 > 0 {
		share := total / roundP50
		r.set("bench.round_accounted_share", share)
		line += fmt.Sprintf(" = %.1f%%; remainder %.2f ms", 100*share, roundP50-total)
	}
	r.note("%s", line)
	return nonparty
}

// recorderCounts copies the exact counts a run left in the process-global
// counters (tape ops, SpMM flops, pool and work-stealing traffic) into
// per-layer metrics. before is a GlobalCounters snapshot taken before the run.
func recorderCounts(r *WorkloadResult, before map[string]int64, rounds, trainSteps int) {
	now := telemetry.GlobalCounters()
	d := func(name string) float64 { return float64(now[name] - before[name]) }
	if trainSteps > 0 {
		r.set("ad.tape_ops_per_step", d("ad/tape_ops")/float64(trainSteps))
	}
	if rounds > 0 {
		r.set("sparse.spmm_flops_per_round", d("sparse/spmm_flops")/float64(rounds))
	}
	if gets := d("mat/pool_hits") + d("mat/pool_misses"); gets > 0 {
		r.set("mat.pool_hit_ratio", d("mat/pool_hits")/gets)
	}
	if jobs := d("mat/workers_jobs"); jobs > 0 {
		r.set("mat.steal_ratio", d("mat/workers_steals")/jobs)
	}
}

// partitionMetrics describes the cut: a faster Louvain that cuts worse must
// show here before it shows in accuracy.
func partitionMetrics(r *WorkloadResult, f *fleet) {
	owner := make([]int, f.g.NumNodes())
	var maxNodes, sumNodes int
	for p, party := range f.parties {
		for _, id := range party.OrigIDs {
			owner[id] = p
		}
		n := party.Graph.NumNodes()
		sumNodes += n
		if n > maxNodes {
			maxNodes = n
		}
	}
	r.set("partition.louvain_parties_ms", f.louvainMs)
	r.set("partition.modularity", partition.Modularity(f.g, owner, 1.0))
	r.set("partition.edge_loss_share", partition.CrossPartyEdgeLoss(f.g, f.parties))
	r.set("partition.noniid_score", partition.NonIIDScore(f.parties, f.g.NumClasses))
	r.set("partition.size_imbalance", float64(maxNodes)*float64(len(f.parties))/float64(sumNodes))
	r.set("core.new_client_ms", f.newClientMs)
}

package bench

import (
	"math/rand"
	"runtime"
	"time"

	"fedomd/internal/ad"
	"fedomd/internal/codec"
	"fedomd/internal/core"
	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
	"fedomd/internal/partition"
	"fedomd/internal/sparse"
)

// A replay calls one public function of a layer at the shapes and on the
// data a workload actually produced, from outside and on its own, so the
// number is the layer's and not the round's.
const (
	replayWarm  = 3
	replayCalls = 20
)

// replayMs runs f replayWarm times untimed, then replayCalls times timed, and
// returns the median in milliseconds.
func replayMs(f func()) float64 { return replayMsN(replayCalls, f) }

func replayMsN(calls int, f func()) float64 {
	for i := 0; i < replayWarm; i++ {
		f()
	}
	times := make([]float64, calls)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = msSince(t0)
	}
	return Median(times)
}

func gflops(flop float64, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return flop / (ms * 1e6)
}

// replayDenseKernels measures the three matmul forms at the party shape
// n×f×h and, unless fixedToo is off (smoke runs: they cost seconds and do not
// shrink with the workload), a fixed 1024³ reference and the box's triad
// bandwidth that every GB/s figure is to be read against.
func replayDenseKernels(r *WorkloadResult, x, w *mat.Dense, rng *rand.Rand, fixedToo bool) {
	n, f, h := x.Rows(), x.Cols(), w.Cols()
	g := mat.RandGaussian(rng, n, h, 0, 1)
	flop := 2 * float64(n) * float64(f) * float64(h)

	out := mat.New(n, h)
	r.set("mat.matmul_gflops", gflops(flop, replayMs(func() { mat.MatMulInto(out, x, w) })))
	outT1 := mat.New(f, h)
	r.set("mat.matmul_t1_gflops", gflops(flop, replayMs(func() { mat.MatMulT1Into(outT1, x, g) })))
	outT2 := mat.New(n, f)
	r.set("mat.matmul_t2_gflops", gflops(flop, replayMs(func() { mat.MatMulT2Into(outT2, g, w) })))
	r.note("matmul replays at %dx%dx%d", n, f, h)
	if !fixedToo {
		return
	}

	const ref = 1024
	a := mat.RandGaussian(rng, ref, ref, 0, 1)
	b := mat.RandGaussian(rng, ref, ref, 0, 1)
	c := mat.New(ref, ref)
	r.set("mat.matmul_1024_gflops", gflops(2*ref*ref*ref, replayMs(func() { mat.MatMulInto(c, a, b) })))

	r.set("bench.triad_gbps", triadGBps())
}

// triadGBps is the STREAM triad a[i] = b[i] + s·c[i] in plain Go over three
// arrays totalling 64 MB: two reads and one write per element, 24 bytes
// counted (computed from the sizes, not measured on the bus).
func triadGBps() float64 {
	const n = 64 << 20 / (3 * 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	ms := replayMs(func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	runtime.KeepAlive(a)
	return 24 * n / (ms * 1e6)
}

// stepRig is one party's training step rebuilt from the public pieces:
// OrthoGCN forward, the three-part loss, Tape.Backward, Adam.
type stepRig struct {
	cfg   core.Config
	p     partition.Party
	model *nn.OrthoGCN
	in    nn.Input
	opt   *nn.Adam
	tape  *ad.Tape
	rng   *rand.Rand

	// The statistics the CMD term is measured against: this party's own,
	// standing in for the global ones (same shapes, same arithmetic).
	hidden []*mat.Dense
	stats  []moments.Stats
	upper  float64
}

// observe runs one evaluation forward and keeps the hidden activations and
// their moments.
func (s *stepRig) observe() error {
	defer s.tape.Release()
	fw := s.model.Forward(s.tape, s.in, s.rng, false)
	s.upper = s.cfg.RangeB
	for _, hn := range fw.Hidden {
		h := hn.Value.Clone()
		st, err := moments.Compute(h, s.cfg.MaxOrder)
		if err != nil {
			return err
		}
		s.hidden, s.stats = append(s.hidden, h), append(s.stats, st)
		if m := mat.Max(h); m > s.upper {
			s.upper = m
		}
	}
	return nil
}

// step runs one training step and returns the forward, backward and Adam
// times in milliseconds.
func (s *stepRig) step() (fwd, bwd, adam float64, err error) {
	tp := s.tape
	defer tp.Release()
	g := s.p.Graph
	t0 := time.Now()
	f := s.model.Forward(tp, s.in, s.rng, true)
	fwd = msSince(t0)
	loss := tp.SoftmaxCrossEntropy(f.Logits, g.Labels, g.TrainMask)
	for _, w := range f.OrthoNodes {
		loss = tp.Add(loss, tp.Scale(s.cfg.Alpha, tp.OrthoPenalty(w)))
	}
	for l, hn := range f.Hidden {
		term, err := moments.CMDLossSquared(tp, hn, s.stats[l].Mean, s.stats[l].Central, s.cfg.RangeA, s.upper)
		if err != nil {
			return 0, 0, 0, err
		}
		loss = tp.Add(loss, tp.Scale(s.cfg.Beta, term))
	}
	t0 = time.Now()
	if err := tp.Backward(loss); err != nil {
		return 0, 0, 0, err
	}
	bwd = msSince(t0)
	t0 = time.Now()
	if err := s.opt.Step(s.model.Params(), f.ParamNodes); err != nil {
		return 0, 0, 0, err
	}
	return fwd, bwd, msSince(t0), nil
}

// cmdLoss records CMDLossSquared on the last hidden layer and backpropagates
// through it.
func (s *stepRig) cmdLoss() error {
	tp := s.tape
	defer tp.Release()
	last := len(s.hidden) - 1
	st := s.stats[last]
	term, err := moments.CMDLossSquared(tp, tp.Param(s.hidden[last]), st.Mean, st.Central, s.cfg.RangeA, s.upper)
	if err != nil {
		return err
	}
	return tp.Backward(term)
}

// replayStep times the parts of one party's training step apart, then the
// moment functions on the hidden activations the step produced.
func replayStep(r *WorkloadResult, p partition.Party, cfg core.Config, parties int, rng *rand.Rand) error {
	g := p.Graph
	norm, err := sparse.GCNNormalize(g.Adj)
	if err != nil {
		return err
	}
	model, err := nn.NewOrthoGCN(rng, g.NumFeatures(), cfg.Hidden, g.NumClasses, cfg.HiddenLayers, cfg.Dropout)
	if err != nil {
		return err
	}
	s := &stepRig{
		cfg: cfg, p: p, model: model, in: nn.Input{S: norm, X: g.Features},
		opt: nn.NewAdam(cfg.LR, cfg.WeightDecay), tape: ad.NewTape(), rng: rng,
	}
	if err := s.observe(); err != nil {
		return err
	}

	var fwdMs, bwdMs, adamMs []float64
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < replayWarm+replayCalls; i++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		fwd, bwd, adam, err := s.step()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		if i >= replayWarm {
			fwdMs, bwdMs, adamMs = append(fwdMs, fwd), append(bwdMs, bwd), append(adamMs, adam)
			mallocs += ms.Mallocs - m0
		}
	}
	r.set("nn.forward_ms", Median(fwdMs))
	r.set("ad.backward_ms", Median(bwdMs))
	r.set("nn.adam_step_ms", Median(adamMs))
	r.set("ad.allocs_per_step", float64(mallocs)/replayCalls)

	last := len(s.hidden) - 1
	z, st := s.hidden[last], s.stats[last]
	r.set("moments.compute_ms", replayMs(func() { _, _ = moments.Compute(z, cfg.MaxOrder) })) // maxOrder validated by observe
	r.set("moments.central_around_ms", replayMs(func() { moments.CentralAround(z, st.Mean, cfg.MaxOrder) }))
	var replayErr error
	r.set("moments.cmd_loss_ms", replayMs(func() {
		if err := s.cmdLoss(); err != nil {
			replayErr = err
		}
	}))
	means := make([]*mat.Dense, parties)
	central := make([][]*mat.Dense, parties)
	counts := make([]int, parties)
	for i := range means {
		means[i], central[i], counts[i] = st.Mean, st.Central, st.N
	}
	r.set("moments.aggregate_ms", replayMs(func() {
		if _, err := moments.AggregateMeans(means, counts); err != nil {
			replayErr = err
		}
		if _, err := moments.AggregateCentral(central, counts); err != nil {
			replayErr = err
		}
	}))
	r.set("moments.stats_bytes_per_party", float64(len(s.stats)*st.Bytes()))
	return replayErr
}

// replaySparseKernels measures GCNNormalize and both SpMM forms on the
// largest party's operator at the workload's hidden width.
func replaySparseKernels(r *WorkloadResult, p partition.Party, hidden int, rng *rand.Rand) error {
	var s *sparse.CSR
	var err error
	r.set("sparse.gcn_normalize_ms", replayMs(func() { s, err = sparse.GCNNormalize(p.Graph.Adj) }))
	if err != nil {
		return err
	}
	n, nnz := s.Rows(), s.NNZ()
	x := mat.RandGaussian(rng, n, hidden, 0, 1)
	out := mat.New(n, hidden)
	flop := 2 * float64(nnz) * float64(hidden)
	fwd := replayMs(func() { s.MulDenseInto(out, x) })
	r.set("sparse.spmm_gflops", gflops(flop, fwd))
	r.set("sparse.spmm_t_gflops", gflops(flop, replayMs(func() { s.TMulDenseInto(out, x) })))
	// Bytes are computed from the sizes, not measured: per non-zero a value
	// and a column index plus one gathered row of x, per row a pointer and
	// one written row of out.
	bytes := float64(nnz)*(16+8*float64(hidden)) + float64(n)*(8+8*float64(hidden))
	r.set("sparse.spmm_gbps", bytes/(fwd*1e6))
	r.note("SpMM replays on %d rows, %d non-zeros, width %d; GB/s computed from sizes", n, nnz, hidden)
	return nil
}

// replayCodec times both codec tiers on a real upload against the real
// global it was trained from, and the fold of the real uploads.
func replayCodec(r *WorkloadResult, uploads []*nn.Params, weights []float64, global *nn.Params) error {
	var err error
	r.set("nn.average_ms", replayMs(func() { _, err = nn.Average(uploads, weights) }))
	if err != nil {
		return err
	}
	next, err := nn.Average(uploads, weights)
	if err != nil {
		return err
	}
	raw := float64(global.Bytes())
	tier := func(prefix string, opts codec.Options, p, ref *nn.Params) error {
		var blob []byte
		var tierErr error
		// A fresh encoder per call: the error-feedback residual of a lossy
		// tier is state, and a replay must encode the same thing each time.
		r.set(prefix+"_encode_ms", replayMs(func() {
			blob, tierErr = codec.NewEncoder(opts).EncodeParams(blob[:0], p, ref)
		}))
		if tierErr != nil {
			return tierErr
		}
		r.set(prefix+"_decode_ms", replayMs(func() {
			var dec *nn.Params
			if dec, tierErr = codec.DecodeParams(blob, ref); tierErr == nil {
				codec.PutParams(dec)
			}
		}))
		r.set(prefix+"_ratio", raw/float64(len(blob)))
		return tierErr
	}
	if err := tier("codec.q8", codec.Options{Kind: codec.Quant, Bits: 8}, uploads[0], global); err != nil {
		return err
	}
	return tier("codec.delta", codec.Options{Kind: codec.Delta}, next, global)
}

// oneMoreStep makes every party take one local step from the final global,
// yielding the uploads round R+1 would have sent: real data for the codec
// and fold replays.
func oneMoreStep(clients []fed.Client, round int) ([]*nn.Params, []float64, error) {
	uploads := make([]*nn.Params, len(clients))
	weights := make([]float64, len(clients))
	for i, c := range clients {
		if _, err := c.TrainLocal(round); err != nil {
			return nil, nil, err
		}
		uploads[i] = c.Params().Clone()
		weights[i] = float64(c.NumSamples())
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	return uploads, weights, nil
}

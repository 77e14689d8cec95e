package bench

// Workload names, in the order the harness runs them.
const (
	TrainDense        = "train_dense"
	TrainSparse       = "train_sparse"
	FedTCPQ8          = "fed_tcp_q8"
	FedAsyncStraggler = "fed_async_straggler"
	ServeZipf         = "serve_zipf"
	ServeUniformSwap  = "serve_uniform_swap"
)

// WorkloadDef names a workload and records why it exists.
type WorkloadDef struct {
	Name, Why string
}

// Workloads lists the six workloads. The Why strings are the ones
// BENCHMARK.json carries; a test keeps the two in step.
var Workloads = []WorkloadDef{
	{TrainDense, "Dense X*W, tape, CMD and Adam do nearly all the work; codec, transport and partition do none. Where mat, ad, moments and nn changes must show."},
	{TrainSparse, "100k-node streamed graph at hidden 16: SpMM, the buffer pool and memory dominate, dense matmul is tiny; set-up is generation + Louvain + GCNNormalize."},
	{FedTCPQ8, "Parties behind loopback TCP with the q8 codec: codec, gob framing, sockets and the fold carry two fifths of the round. Where codec and transport changes must show."},
	{FedAsyncStraggler, "Async buffered aggregation with a quarter of the parties 40 ms slow: dispatch, fold, staleness discount, eviction. A barrier sneaking in shows as a 10x drop."},
	{ServeZipf, "Open-loop single-node classifies with Zipf ids: the LRU and the micro-batcher do the work, the head matmul almost none."},
	{ServeUniformSwap, "Open-loop 16-node classifies with uniform ids while checkpoints hot-swap, then a bulk sweep: cache-hostile gathers beside table rebuilds."},
}

var (
	trainWorkloads = []string{TrainDense, TrainSparse, FedTCPQ8, FedAsyncStraggler}
	serveWorkloads = []string{ServeZipf, ServeUniformSwap}
)

// MetricDef describes one metric: its unit, which direction is better, and
// for end-to-end metrics the bound by which the median may worsen before a
// change counts as a regression.
type MetricDef struct {
	Name, Unit, Better string
	// Bound is a share of the parent's median, or an absolute distance when
	// Abs is set. Zero on per-layer metrics, which carry no bound.
	Bound float64
	Abs   bool
	// Workloads the metric applies to; nil means all six.
	Workloads []string
	// Gate marks the end-to-end metrics every workload reports and that
	// BENCHMARK.json therefore lists; see README.md, "Two lists".
	Gate bool
	// Alias marks a gate metric that repeats a named metric's value, so a
	// comparison that walks the named metrics must not judge it twice.
	Alias bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd lists the end-to-end metrics: first the five every workload
// reports (the gate), then the eleven named ones that exist on some
// workloads only. A gate metric that aliases a named one (op_p50_ms is
// round_p50_ms on training workloads and classify_p50_ms on serving ones)
// carries the same value under both names and the same bound.
//
// Bounds on times and rates are about three times the interquartile spread
// of ten runs on the 2-core reference box (5 % on train_dense, 12 % on
// fed_tcp_q8, both from slow episodes of the box itself), capped at the
// contract's 0.25: a bound inside the noise resolves nothing.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20, Gate: true},
	{Name: "op_p50_ms", Alias: true, Unit: "ms", Better: lower, Bound: 0.25, Gate: true},
	{Name: "op_tail_ms", Unit: "ms", Better: lower, Bound: 0.25, Gate: true},
	{Name: "ops_per_s", Alias: true, Unit: "1/s", Better: higher, Bound: 0.25, Gate: true},

	{Name: "rounds_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Workloads: trainWorkloads},
	{Name: "round_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: trainWorkloads},
	{Name: "round_p90_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{TrainDense, FedAsyncStraggler}},
	{Name: "time_to_target_s", Unit: "s", Better: lower, Bound: 0.20, Workloads: []string{TrainDense}},
	{Name: "test_acc", Unit: "share", Better: higher, Bound: 0.02, Abs: true, Workloads: []string{TrainDense, TrainSparse, FedTCPQ8}},
	{Name: "wire_bytes_per_round", Unit: "B", Better: lower, Bound: 0.01, Workloads: []string{FedTCPQ8}},
	{Name: "classify_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: serveWorkloads},
	{Name: "classify_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{ServeUniformSwap}},
	{Name: "goodput_share", Unit: "share", Better: higher, Bound: 0.03, Abs: true, Workloads: serveWorkloads},
	{Name: "bulk_rows_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Workloads: []string{ServeUniformSwap}},
	{Name: "swap_visible_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: []string{ServeUniformSwap}},
}

// PerLayer lists the per-layer metrics. A traced run of any workload prints
// all of them; one a workload does not exercise reads 0 there.
var PerLayer = []MetricDef{
	{Name: "dataset.generate_stream_ms", Unit: "ms", Better: lower},
	{Name: "dataset.edges_per_s", Unit: "1/s", Better: higher},
	{Name: "partition.louvain_parties_ms", Unit: "ms", Better: lower},
	{Name: "partition.modularity", Unit: "share", Better: higher},
	{Name: "partition.edge_loss_share", Unit: "share", Better: lower},
	{Name: "partition.noniid_score", Unit: "share", Better: higher},
	{Name: "partition.size_imbalance", Unit: "ratio", Better: lower},
	{Name: "sparse.gcn_normalize_ms", Unit: "ms", Better: lower},
	{Name: "sparse.spmm_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "sparse.spmm_t_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "sparse.spmm_gbps", Unit: "GB/s", Better: higher},
	{Name: "sparse.spmm_flops_per_round", Unit: "count", Better: lower},
	{Name: "mat.matmul_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "mat.matmul_t1_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "mat.matmul_t2_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "mat.matmul_1024_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "mat.pool_hit_ratio", Unit: "share", Better: higher},
	{Name: "mat.steal_ratio", Unit: "share", Better: lower},
	{Name: "bench.triad_gbps", Unit: "GB/s", Better: higher},
	{Name: "ad.tape_ops_per_step", Unit: "count", Better: lower},
	{Name: "ad.backward_ms", Unit: "ms", Better: lower},
	{Name: "ad.allocs_per_step", Unit: "count", Better: lower},
	{Name: "nn.forward_ms", Unit: "ms", Better: lower},
	{Name: "nn.adam_step_ms", Unit: "ms", Better: lower},
	{Name: "nn.average_ms", Unit: "ms", Better: lower},
	{Name: "nn.inferencer_build_ms", Unit: "ms", Better: lower},
	{Name: "nn.infer_us_per_row", Unit: "us", Better: lower},
	{Name: "moments.compute_ms", Unit: "ms", Better: lower},
	{Name: "moments.central_around_ms", Unit: "ms", Better: lower},
	{Name: "moments.cmd_loss_ms", Unit: "ms", Better: lower},
	{Name: "moments.aggregate_ms", Unit: "ms", Better: lower},
	{Name: "moments.stats_bytes_per_party", Unit: "B", Better: lower},
	{Name: "core.train_local_ms", Unit: "ms", Better: lower},
	{Name: "core.local_means_ms", Unit: "ms", Better: lower},
	{Name: "core.central_moments_ms", Unit: "ms", Better: lower},
	{Name: "core.set_params_ms", Unit: "ms", Better: lower},
	{Name: "core.eval_ms", Unit: "ms", Better: lower},
	{Name: "core.new_client_ms", Unit: "ms", Better: lower},
	{Name: "fed.round_self_ms", Unit: "ms", Better: lower},
	{Name: "fed.barrier_idle_share", Unit: "share", Better: lower},
	{Name: "fed.async_staleness_mean", Unit: "count", Better: lower},
	{Name: "fed.async_evicted", Unit: "count", Better: lower},
	{Name: "fed.async_stalls", Unit: "count", Better: lower},
	{Name: "fed.async_test_acc", Unit: "share", Better: higher},
	{Name: "fed.dropped_party_rounds", Unit: "count", Better: lower},
	{Name: "fed.client_failures", Unit: "count", Better: lower},
	{Name: "fed.checkpoint_load_ms", Unit: "ms", Better: lower},
	{Name: "transport.wire_bytes_up_per_round", Unit: "B", Better: lower},
	{Name: "transport.wire_bytes_down_per_round", Unit: "B", Better: lower},
	{Name: "transport.rpcs_per_round", Unit: "count", Better: lower},
	{Name: "transport.write_block_ms_per_round", Unit: "ms", Better: lower},
	{Name: "transport.nonparty_ms_per_round", Unit: "ms", Better: lower},
	{Name: "transport.logical_to_wire_ratio", Unit: "ratio", Better: higher},
	{Name: "transport.retries", Unit: "count", Better: lower},
	{Name: "codec.q8_encode_ms", Unit: "ms", Better: lower},
	{Name: "codec.q8_decode_ms", Unit: "ms", Better: lower},
	{Name: "codec.q8_ratio", Unit: "ratio", Better: higher},
	{Name: "codec.delta_encode_ms", Unit: "ms", Better: lower},
	{Name: "codec.delta_decode_ms", Unit: "ms", Better: lower},
	{Name: "codec.delta_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.classify_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.cache_hit_ratio", Unit: "share", Better: higher},
	{Name: "serve.avg_batch_rows", Unit: "count", Better: higher},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: lower},
	{Name: "serve.queue_depth_p99", Unit: "count", Better: lower},
	{Name: "serve.overload_share", Unit: "share", Better: lower},
	{Name: "serve.max_rate_ok_qps", Unit: "1/s", Better: higher},
	{Name: "serve.swap_build_ms", Unit: "ms", Better: lower},
	{Name: "serve.swaps", Unit: "count", Better: higher},
	{Name: "serve.http_handler_us", Unit: "us", Better: lower},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.traced_op_p50_ms", Unit: "ms", Better: lower},
	{Name: "bench.round_accounted_share", Unit: "share", Better: higher},
}

// TraceOverhead is computed by the full run from the two passes, so a single
// traced run cannot print it and BENCHMARK.json does not list it.
var TraceOverhead = MetricDef{Name: "bench.trace_overhead_share", Unit: "share", Better: lower}

// AppliesTo reports whether the metric exists on the workload.
func (d MetricDef) AppliesTo(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// FindDef looks a metric up in both lists.
func FindDef(name string) (MetricDef, bool) {
	for _, list := range [][]MetricDef{EndToEnd, PerLayer, {TraceOverhead}} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return MetricDef{}, false
}

package chaos_test

// The async soak drives the buffered no-barrier aggregation mode through the
// public facade under a hostile fault profile — one party degraded to a
// sustained straggler, fleet-wide transient faults, and NaN-poisoned uploads
// — and holds it to both halves of the robustness bargain at once:
//
//   - throughput: the async run must outpace the barriered sync run under
//     the SAME fault profile by a third of the ratio of the two schedules'
//     straggler chains (the straggler paces every sync round but only its
//     own async updates; the gate's derivation is below);
//   - accuracy: the async run must stay within 0.02 test accuracy of the
//     fault-FREE sync baseline (one-sided, as in the crash soak).
//
// All three runs are fully deterministic in their fault schedules; the
// arrival order inside the async buffer is timing-dependent, but the gates
// are margins, not equalities.

import (
	"runtime"
	"testing"
	"time"

	"fedomd"
)

func TestSoakAsyncOutpacesSyncUnderStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test with injected latency")
	}
	g, err := fedomd.GenerateDataset("cora", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := fedomd.Partition(g, 5, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedomd.DefaultConfig()
	cfg.Hidden = 16
	const rounds = 10

	baseline, err := fedomd.TrainFedOMD(parties, cfg, fedomd.RunOptions{Rounds: rounds}, 3)
	if err != nil {
		t.Fatal(err)
	}

	// The shared fault profile: the whole fleet is paced at 20ms per call —
	// injected sleeps, not machine-dependent compute, then dominate both
	// loops, so the schedule (and hence the fold sets and staleness values)
	// is reproducible across hardware. One party is further degraded to a
	// 100ms sustained straggler, with occasional transient faults and NaN
	// uploads fleet-wide. Accuracy is scored only every 5 rounds so both
	// runs pay the same eval tax and the throughput ratio measures the
	// round topology, not the scoring. The async run folds the first 4
	// arrivals or whatever the 250ms round deadline caught — without the
	// deadline a transiently failing fast party would leave the round
	// waiting on the straggler's 600ms job.
	const (
		latency     = 20 * time.Millisecond
		slowLatency = 100 * time.Millisecond
		nSlow       = 1 // ⌈SlowFraction · parties⌉
	)
	faultOpts := func(agg string, nRounds int) fedomd.RunOptions {
		return fedomd.RunOptions{
			Rounds:        nRounds,
			EvalEvery:     5,
			Policy:        fedomd.DropRound,
			Aggregation:   agg,
			BufferK:       4,
			BufferTimeout: 250 * time.Millisecond,
			Chaos: &fedomd.ChaosOptions{
				Seed:         11,
				ErrRate:      0.02,
				NaNRate:      0.02,
				Latency:      latency,
				SlowFraction: 0.2,
				SlowLatency:  slowLatency,
			},
		}
	}

	syncStart := time.Now()
	faultySync, err := fedomd.TrainFedOMD(parties, cfg, faultOpts("sync", rounds), 3)
	if err != nil {
		t.Fatalf("faulty sync run aborted: %v", err)
	}
	syncSecs := time.Since(syncStart).Seconds()

	// The async run gets twice the rounds — that is the robustness claim in
	// action: it still finishes in a fraction of the sync run's wall-clock,
	// and the rate gate below compares rounds/sec, not totals.
	asyncStart := time.Now()
	faultyAsync, err := fedomd.TrainFedOMD(parties, cfg, faultOpts("async", 2*rounds), 3)
	if err != nil {
		t.Fatalf("faulty async run aborted: %v", err)
	}
	asyncSecs := time.Since(asyncStart).Seconds()

	if len(faultyAsync.History) != 2*rounds {
		t.Fatalf("async run completed %d of %d rounds", len(faultyAsync.History), 2*rounds)
	}
	if len(faultySync.ClientFailures) == 0 || len(faultyAsync.ClientFailures) == 0 {
		t.Fatalf("no faults tolerated (sync %v, async %v) — the soak proves nothing",
			faultySync.ClientFailures, faultyAsync.ClientFailures)
	}
	syncRate := float64(len(faultySync.History)) / syncSecs
	asyncRate := float64(len(faultyAsync.History)) / asyncSecs
	// The gate comes from the two schedules' straggler chains. Both make
	// the same six calls per party per round (install, means, moments,
	// stats, train, upload), each sleeping its party's latency. An async
	// round folds the first BufferK arrivals, the fast parties' jobs, so a
	// call on its chain costs latency. A sync round waits in every phase
	// for its slowest party, with at most GOMAXPROCS calls in flight, so a
	// phase costs at least max(slowLatency, the fleet's summed latency /
	// workers): 180 ms when one worker visits the five parties in turn,
	// 100 ms once two or more overlap the straggler with its peers. The
	// gate asks for a third of the chains' ratio: 3× for the serial round
	// (the gate this soak was written with), 5/3× for the overlapped one.
	workers := time.Duration(min(runtime.GOMAXPROCS(0), len(parties)))
	fleet := time.Duration(len(parties)-nSlow)*latency + nSlow*slowLatency
	gate := float64(max(slowLatency, fleet/workers)) / float64(latency) / 3
	t.Logf("baseline test@best %.4f | faulty sync %.2f rounds/sec test@best %.4f | faulty async %.2f rounds/sec test@best %.4f | gate %.2f×",
		baseline.TestAtBestVal, syncRate, faultySync.TestAtBestVal, asyncRate, faultyAsync.TestAtBestVal, gate)
	if asyncRate < gate*syncRate {
		t.Fatalf("async %.2f rounds/sec vs sync %.2f under the same faults: want ≥%.2f×",
			asyncRate, syncRate, gate)
	}

	if loss := baseline.TestAtBestVal - faultyAsync.TestAtBestVal; loss > 0.02 {
		t.Fatalf("async TestAtBestVal %v vs fault-free sync %v: degradation %v exceeds 0.02",
			faultyAsync.TestAtBestVal, baseline.TestAtBestVal, loss)
	}
}

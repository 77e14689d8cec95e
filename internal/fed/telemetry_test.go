package fed

import (
	"errors"
	"sync/atomic"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// TestRunRecordsTelemetry checks the runtime's phase spans, per-client train
// histograms and comms counters line up with the run's actual shape.
func TestRunRecordsTelemetry(t *testing.T) {
	const rounds, m = 4, 3
	agg := telemetry.NewAggregator()
	clients := make([]Client, m)
	for i := range clients {
		clients[i] = newFakeClient(string(rune('a'+i)), 1, 0)
	}
	res, err := Run(Config{Rounds: rounds, Recorder: agg}, clients)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		obs.SpanRound, obs.SpanBroadcast, obs.SpanEval,
		obs.SpanTrain, obs.SpanAux, obs.SpanAggregate,
	} {
		s, ok := agg.Histogram(name + "_seconds")
		if !ok || s.Count != rounds {
			t.Fatalf("%s count = %d (present=%v) want %d", name, s.Count, ok, rounds)
		}
	}
	if s, _ := agg.Histogram(obs.SpanClientTrain + "_seconds"); s.Count != rounds*m {
		t.Fatalf("client train samples = %d want %d", s.Count, rounds*m)
	}
	// Plain clients: no moment exchange, so no moments span.
	if _, ok := agg.Histogram(obs.SpanMoments + "_seconds"); ok {
		t.Fatal("moments span recorded without moment clients")
	}
	if got := agg.Counter(MetricRounds); got != rounds {
		t.Fatalf("rounds counter = %d want %d", got, rounds)
	}
	if got := agg.Counter(MetricActiveClients); got != rounds*m {
		t.Fatalf("active clients counter = %d want %d", got, rounds*m)
	}
	if got := agg.Counter(MetricBytesUp); got != res.TotalBytesUp {
		t.Fatalf("bytes up counter = %d, result says %d", got, res.TotalBytesUp)
	}
	if got := agg.Counter(MetricBytesDown); got != res.TotalBytesDown {
		t.Fatalf("bytes down counter = %d, result says %d", got, res.TotalBytesDown)
	}
	if v, ok := agg.GaugeValue(MetricValAcc); !ok || v != res.History[rounds-1].ValAcc {
		t.Fatalf("val acc gauge = %v,%v want %v", v, ok, res.History[rounds-1].ValAcc)
	}
}

// TestFailedTrainIsNoLatencySample runs a fleet with one party whose every
// TrainLocal fails under DropRound, on both schedules: only the calls that
// succeeded may land in the per-client train histogram.
func TestFailedTrainIsNoLatencySample(t *testing.T) {
	for _, mode := range []AggregationMode{AggSync, AggAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			agg := telemetry.NewAggregator()
			a, b := newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)
			bad := newFakeClient("bad", 1, 0)
			bad.trainErr = errors.New("injected train failure")
			_, err := Run(Config{Rounds: 3, Policy: DropRound, Aggregation: mode, Recorder: agg},
				[]Client{a, b, bad})
			if err != nil {
				t.Fatal(err)
			}
			if atomic.LoadInt32(&bad.trainCalls) == 0 {
				t.Fatal("the failing party was never asked to train")
			}
			ok := int64(atomic.LoadInt32(&a.trainCalls) + atomic.LoadInt32(&b.trainCalls))
			if s, _ := agg.Histogram(obs.SpanClientTrain + "_seconds"); s.Count != ok {
				t.Fatalf("client train samples = %d, want the %d successful calls", s.Count, ok)
			}
		})
	}
}

// TestRunNilRecorderIsFree ensures a nil Recorder runs through the no-op
// path (no panic, identical results to an instrumented run).
func TestRunNilRecorderIsFree(t *testing.T) {
	mk := func(rec telemetry.Recorder) *Result {
		a := newFakeClient("a", 3, 0)
		a.trainVal = 1
		b := newFakeClient("b", 1, 0)
		b.trainVal = 5
		res, err := Run(Config{Rounds: 2, Recorder: rec}, []Client{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := mk(nil)
	instrumented := mk(telemetry.NewAggregator())
	if plain.FinalParams.Get("w").At(0, 0) != instrumented.FinalParams.Get("w").At(0, 0) {
		t.Fatal("telemetry changed the training result")
	}
}

// TestMomentExchangeSpanRecorded covers the moments phase with moment
// clients present.
func TestMomentExchangeSpanRecorded(t *testing.T) {
	agg := telemetry.NewAggregator()
	d1, _ := mat.NewFromRows([][]float64{{0}, {2}})
	d2, _ := mat.NewFromRows([][]float64{{10}, {12}})
	a := &momentFake{fakeClient: newFakeClient("a", 2, 0), data: d1}
	b := &momentFake{fakeClient: newFakeClient("b", 2, 0), data: d2}
	if _, err := Run(Config{Rounds: 2, Recorder: agg}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if s, ok := agg.Histogram(obs.SpanMoments + "_seconds"); !ok || s.Count != 2 {
		t.Fatalf("moments span count = %d (present=%v) want 2", s.Count, ok)
	}
}

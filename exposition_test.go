package fedomd

import (
	"bytes"
	"testing"
)

// TestExpositionLintAfterChaosRun drives a short q8 FedOMD run with NaN
// poisoning (so the non-finite screen and the health counters fire and their
// families appear), renders the aggregator as Prometheus text, and runs the
// exposition linter over it: metric names, duplicate series, histogram
// bucket invariants.
func TestExpositionLintAfterChaosRun(t *testing.T) {
	g, err := GenerateDataset("cora", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := Partition(g, 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewTelemetryAggregator()
	opts := RunOptions{
		Rounds:   4,
		Recorder: agg,
		Policy:   DropRound,
		Observer: NewHealthMonitor(HealthConfig{}, nil, agg),
		Codec:    "q8",
		Chaos:    &ChaosOptions{Seed: 3, NaNRate: 0.2},
	}
	if _, err := TrainFedOMD(parties, DefaultConfig(), opts, 4); err != nil {
		t.Fatal(err)
	}
	build := CollectBuildInfo("q8", "drop-round")
	var buf bytes.Buffer
	WriteExposition(&buf, agg, &build)
	if !bytes.Contains(buf.Bytes(), []byte("fedomd_obs_health")) {
		t.Errorf("exposition lacks the health families the NaN chaos should raise:\n%s", buf.Bytes())
	}
	for _, p := range LintExposition(bytes.NewReader(buf.Bytes())) {
		t.Error(p)
	}
}

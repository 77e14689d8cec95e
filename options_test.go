package fedomd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedomd/internal/fed"
)

// roundCounter is a RoundObserver that keeps every observation it is fed.
type roundCounter struct{ seen []RoundObservation }

func (r *roundCounter) ObserveRound(_ SpanContext, o RoundObservation) { r.seen = append(r.seen, o) }

// hasRootSpan reports whether a JSONL trace holds a parentless span record
// with the given name.
func hasRootSpan(t *testing.T, trace []byte, name string) bool {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(trace))
	found := false
	for sc.Scan() {
		var rec struct{ Type, Name, Parent string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable trace line %q: %v", sc.Text(), err)
		}
		found = found || (rec.Type == "span" && rec.Name == name && rec.Parent == "")
	}
	return found
}

// TestTrainBaselineHonoursEveryOption trains every model through
// TrainBaseline at Cora ÷12 for three rounds with tracing, observation,
// checkpointing, async aggregation and a chaos crash under DropRound all on,
// and checks that each one took effect. LocGCN, which trains without
// federation, must instead refuse by name each option it cannot honour.
func TestTrainBaselineHonoursEveryOption(t *testing.T) {
	g, err := GenerateDataset("cora", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := Partition(g, 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	dir := t.TempDir()
	var written string // a checkpoint a federated run wrote, for LocGCN's resume
	for _, model := range Models() {
		if model == LocGCN {
			continue
		}
		t.Run(model, func(t *testing.T) {
			var trace bytes.Buffer
			tw := NewTraceWriter(&trace)
			seen := &roundCounter{}
			path := filepath.Join(dir, model+".ckpt")
			res, err := TrainBaseline(model, parties, RunOptions{
				Rounds:          rounds,
				Tracer:          NewTracer(tw),
				Observer:        seen,
				CheckpointPath:  path,
				CheckpointEvery: 1,
				Aggregation:     "async",
				BufferK:         len(parties),
				Policy:          DropRound,
				Chaos:           &ChaosOptions{Seed: 1, CrashFraction: 0.3, CrashAtRound: 1},
				Spec:            &ModelSpec{Dataset: "cora", Divisor: 12, DataSeed: 1},
			}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			if !hasRootSpan(t, trace.Bytes(), "fed/run") {
				t.Error("Tracer: no fed/run root span")
			}
			if len(seen.seen) != rounds {
				t.Errorf("Observer: %d observations over %d rounds", len(seen.seen), rounds)
			}
			for _, o := range seen.seen {
				if !o.Async {
					t.Errorf("Aggregation: round %d observed as synchronous", o.Round)
				}
			}
			ck, err := fed.LoadCheckpointFile(path)
			if err != nil {
				t.Fatalf("CheckpointPath: %v", err)
			}
			if ck.Round != rounds {
				t.Errorf("CheckpointPath: checkpoint at round %d, want %d", ck.Round, rounds)
			}
			// FedOMD's checkpoints are servable: the header carries its
			// architecture beside the dataset identity passed in.
			if sp := ck.Spec; model == FedOMD && (sp == nil || sp.Model != "fedomd" ||
				sp.Features != g.NumFeatures() || sp.Classes != g.NumClasses || sp.Dataset != "cora") {
				t.Errorf("Spec: FedOMD checkpoint header %+v", sp)
			}
			if len(res.ClientFailures) == 0 {
				t.Error("Chaos: the crashed party caused no failure")
			}
			written = path
		})
	}
	if written == "" {
		t.Fatal("no federated run wrote a checkpoint")
	}

	t.Run(LocGCN, func(t *testing.T) {
		for _, tc := range []struct {
			field string
			opts  RunOptions
		}{
			{"Codec", RunOptions{Codec: "q8"}},
			{"Aggregation", RunOptions{Aggregation: "async"}},
			{"Policy", RunOptions{Policy: DropRound}},
			{"ClientTimeout", RunOptions{ClientTimeout: time.Second}},
			{"CheckpointWriter", RunOptions{CheckpointPath: filepath.Join(dir, "loc.ckpt")}},
			{"Resume", RunOptions{ResumePath: written}},
		} {
			tc.opts.Rounds = rounds
			_, err := TrainBaseline(LocGCN, parties, tc.opts, 3)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: err = %v, want a refusal naming it", tc.field, err)
			}
		}
		// The CLI's defaults and the observability options still run.
		res, err := TrainBaseline(LocGCN, parties, RunOptions{Rounds: rounds, MinClients: 1,
			MaxStrikes: 3, CooldownRounds: 1, CheckpointEvery: 10, Observer: &roundCounter{}}, 3)
		if err != nil {
			t.Fatalf("defaults refused: %v", err)
		}
		if len(res.History) != rounds {
			t.Fatalf("history %d rounds, want %d", len(res.History), rounds)
		}
	})
}

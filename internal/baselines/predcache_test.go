package baselines

import (
	"testing"

	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/telemetry"
)

// TestPredictionsFollowEveryWeightChange: for each baseline, the predictions
// kept for EvalVal/EvalTest must equal a recomputation after every way the
// weights can change, and the second eval of a pair records no forward.
func TestPredictionsFollowEveryWeightChange(t *testing.T) {
	g := tinyGraph(t, 4)
	opts := quickOpts()
	opts.LocalEpochs = 5
	kinds := []struct {
		name  string
		build func(g *graph.Graph, seed int64) (fed.Client, *predCache, error)
	}{
		{"FedMLP", func(g *graph.Graph, seed int64) (fed.Client, *predCache, error) {
			c, err := NewFedMLP("c", g, opts, seed)
			return c, &c.preds, err
		}},
		{"FedGCN", func(g *graph.Graph, seed int64) (fed.Client, *predCache, error) {
			c, err := NewGCNClient("c", g, opts, seed)
			return c, &c.preds, err
		}},
		{"Scaffold", func(g *graph.Graph, seed int64) (fed.Client, *predCache, error) {
			c, err := NewScaffold("c", g, opts, seed)
			return c, &c.preds, err
		}},
		{"FedLIT", func(g *graph.Graph, seed int64) (fed.Client, *predCache, error) {
			c, err := NewFedLIT("c", g, 3, opts, seed)
			return c, &c.preds, err
		}},
		{"FedSage", func(g *graph.Graph, seed int64) (fed.Client, *predCache, error) {
			c, err := NewFedSage("c", g, opts, seed)
			return c, &c.preds, err
		}},
	}
	tapeOps := func() int64 { return telemetry.GlobalCounters()["ad/tape_ops"] }
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			c, preds, err := k.build(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			donor, _, err := k.build(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			check := func(after string) {
				t.Helper()
				before := tapeOps()
				c.EvalVal()
				if tapeOps() == before {
					t.Fatalf("after %s: EvalVal recorded no forward", after)
				}
				before = tapeOps()
				c.EvalTest()
				if d := tapeOps() - before; d != 0 {
					t.Fatalf("after %s: EvalTest on the same weights recorded %d tape ops", after, d)
				}
				kept := append([]int(nil), preds.pred...)
				preds.drop()
				c.EvalVal()
				for i, want := range preds.pred {
					if kept[i] != want {
						t.Fatalf("after %s: node %d kept prediction %d, recomputed %d", after, i, kept[i], want)
					}
				}
			}
			check("construction")
			if err := c.SetParams(donor.Params()); err != nil {
				t.Fatal(err)
			}
			check("SetParams")
			if _, err := c.TrainLocal(0); err != nil {
				t.Fatal(err)
			}
			check("TrainLocal")
			c.Params().At(0).ScaleInPlace(-1)
			check("a write through Params()")
		})
	}
}

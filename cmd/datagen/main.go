// Command datagen generates a synthetic dataset, reports its Table 2
// statistics, and (optionally) the per-party label distribution of a Louvain
// cut — the raw data behind paper Figure 4.
//
// Usage:
//
//	datagen -dataset cora -divisor 1
//	datagen -dataset photo -parties 5
package main

import (
	"flag"
	"fmt"
	"os"

	"fedomd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments, minus the process exit, so tests
// can call it in process.
func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	ds := fs.String("dataset", "cora", "dataset preset")
	divisor := fs.Int("divisor", 1, "shrink divisor (1 = paper scale)")
	parties := fs.Int("parties", 0, "if > 0, also show the Louvain party label distribution")
	resolution := fs.Float64("resolution", 1.0, "Louvain resolution")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "write the generated graph (with masks) to this JSON file")
	in := fs.String("in", "", "load the graph from this JSON file instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		g   *fedomd.Graph
		err error
	)
	if *in != "" {
		g, err = fedomd.LoadGraph(*in)
	} else {
		g, err = fedomd.GenerateDataset(*ds, *divisor, *seed)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := fedomd.SaveGraph(g, *out); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	fmt.Printf("%s: %s\n", *ds, g.Summary())
	fmt.Printf("split: %d train / %d val / %d test\n",
		len(g.TrainMask), len(g.ValMask), len(g.TestMask))
	fmt.Printf("label histogram: %v\n", g.LabelHistogram())

	if *parties > 0 {
		ps, err := fedomd.Partition(g, *parties, *resolution, *seed+1)
		if err != nil {
			return err
		}
		fmt.Printf("\nLouvain cut into %d parties (resolution %g, non-iid score %.3f):\n",
			*parties, *resolution, fedomd.NonIIDScore(ps, g.NumClasses))
		for i, p := range ps {
			fmt.Printf("  party %d: %4d nodes, %5d edges, labels %v\n",
				i, p.Graph.NumNodes(), p.Graph.NumEdges(), p.Graph.LabelHistogram())
		}
	}
	return nil
}

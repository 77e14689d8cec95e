// Command bench is the repository's one benchmark: six named workloads,
// end-to-end metrics with bounds, per-layer metrics measured from outside,
// and a traced pass. See README.md beside this file.
//
//	go run ./cmd/bench [-seed N] [-out results.json] [-trace-out spans.jsonl]
//
// runs every workload untraced, each in a fresh child process of this binary,
// then every workload traced, prints every metric as "workload metric value
// unit", runs the correctness checks and exits non-zero if one fails.
//
//	bench -workload <name> -seed N -seconds S -trace 0|1
//
// runs one workload in this process and prints, as its last line, the JSON
// object BENCHMARK.json's contract asks for.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"fedomd/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process")
		seed     = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Int("seconds", 12, "nominal measured window per workload")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints per-layer metrics")
		out      = flag.String("out", "", "write the result as JSON to this file")
		traceOut = flag.String("trace-out", "", "append the traced pass's spans to this file as JSONL")
		smoke    = flag.Bool("smoke", false, "run every workload at toy size")
		sets     = flag.Int("sets", 1, "run this many untraced sets and fail if their medians disagree beyond the bounds")
		runs     = flag.Int("runs", 1, "runs per workload in a set, seeds N, N+1, ...; a set's value is their median")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare parent.json change.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workload != "":
		err = runOne(*workload, bench.Options{Seed: *seed, Seconds: float64(*seconds), Trace: *trace != 0, Smoke: *smoke}, *out, *traceOut)
	default:
		err = runAll(*seed, *seconds, *sets, *runs, *smoke, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload here and prints its metrics and the driver line.
// A failed correctness check is reported in the line, not by the exit code:
// the run itself completed.
func runOne(name string, o bench.Options, out, traceOut string) error {
	r, err := bench.Run(name, o)
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	if out != "" {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" && o.Trace {
		f, err := os.OpenFile(traceOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := bench.WriteSpans(f, name, r.Spans()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := r.DriverLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// child runs one workload in a fresh process of this binary, so that peak
// RSS, GC state and the process-global counters are that workload's alone.
func child(name string, seed int64, seconds int, traced, smoke bool, traceOut string) (*bench.WorkloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(".bench_build", "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-out", tmp.Name(),
	}
	if traced {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	// Everything but the driver's JSON line is for the reader.
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && line[0] != '{' {
			fmt.Printf("%s\n", line)
		}
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var r bench.WorkloadResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("workload %s: reading its result: %w", name, err)
	}
	return &r, nil
}

func runAll(seed int64, seconds, sets, runs int, smoke bool, out, traceOut string) error {
	res := &bench.Result{Envelope: bench.CollectEnvelope(seed, seconds, smoke)}
	env, err := json.Marshal(res.Envelope)
	if err != nil {
		return err
	}
	fmt.Printf("envelope %s\n", env)
	if traceOut != "" {
		if err := os.Remove(traceOut); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	failed := 0
	for s := 0; s < sets; s++ {
		var set []*bench.WorkloadResult
		for _, w := range bench.Workloads {
			for run := 0; run < runs; run++ {
				r, err := child(w.Name, seed+int64(run), seconds, false, smoke, "")
				if err != nil {
					return err
				}
				failed += r.Failed
				set = append(set, r)
			}
		}
		res.Sets = append(res.Sets, set)
	}
	for _, w := range bench.Workloads {
		r, err := child(w.Name, seed, seconds, true, smoke, traceOut)
		if err != nil {
			return err
		}
		failed += r.Failed
		// Tracing overhead is the one number that needs both passes.
		if base := bench.Median(res.Values(w.Name, "op_p50_ms")); base > 0 {
			if traced, ok := r.Metrics["bench.traced_op_p50_ms"]; ok {
				d := bench.TraceOverhead
				r.Metrics[d.Name] = bench.Metric{Value: traced.Value/base - 1, Unit: d.Unit}
				fmt.Printf("%s %s %.4f %s\n", w.Name, d.Name, traced.Value/base-1, d.Unit)
			}
		}
		res.Traced = append(res.Traced, r)
	}
	if out != "" {
		if err := res.WriteFile(out); err != nil {
			return err
		}
	}
	if sets > 1 {
		if n := bench.SetsAgree(os.Stdout, res); n > 0 {
			return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound", n)
		}
		fmt.Printf("%d sets of %d runs agree within the bounds on every end-to-end metric\n", sets, runs)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or checks did not hold", failed)
	}
	fmt.Println("all correctness checks passed; 0 failed operations")
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files: parent.json change.json")
	}
	parent, err := bench.ReadResult(args[0])
	if err != nil {
		return err
	}
	change, err := bench.ReadResult(args[1])
	if err != nil {
		return err
	}
	if n := bench.Compare(os.Stdout, parent, change); n > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed beyond their bound", n)
	}
	return nil
}

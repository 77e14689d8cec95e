// Command fedomdvet runs the project-specific static analyzers over the
// module: the cfg-dataflow checks poolpair, tapelease, spanend and
// residualstate, and the syntactic checks intoalias, telemetrykey and
// parforcapture (see internal/analysis and DESIGN.md §8, §13). Output follows
// go vet's file:line:col: message convention.
//
// Usage:
//
//	fedomdvet [-list] [-only a,b] [-json] [-timing] [packages]
//
// Package patterns are directories relative to the working directory;
// "./..." (the default) walks the whole tree. -only restricts the run to a
// comma-separated subset of analyzers (unknown names are a usage error).
// -json emits one JSON object per diagnostic instead of vet lines, for
// editor and CI integration. -timing prints per-analyzer cumulative wall
// time to stderr so slow checks are visible. Exit status is 0 when clean,
// 1 when any analyzer reported a diagnostic, 2 when a package failed to
// parse or type-check (or on a usage error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fedomd/internal/analysis"
)

func main() { os.Exit(run(os.Stdout, os.Stderr, flag.CommandLine, os.Args[1:])) }

// jsonDiag is the -json wire shape: flat, stable field names, one object per
// line (JSONL).
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(stdout, stderr io.Writer, fs *flag.FlagSet, args []string) int {
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	timing := fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fedomdvet [-list] [-only a,b] [-json] [-timing] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		var names []string
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		var unknown []string
		analyzers, unknown = analysis.ByName(names)
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "fedomdvet: unknown analyzer(s): %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(stderr, "fedomdvet: -only selected no analyzers")
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "fedomdvet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "fedomdvet:", err)
		return 2
	}
	loader, err := analysis.SharedLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "fedomdvet:", err)
		return 2
	}
	dirs, err := analysis.ExpandPatterns(cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fedomdvet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "fedomdvet: no packages matched")
		return 2
	}

	enc := json.NewEncoder(stdout)
	totals := map[string]time.Duration{}
	loadFailed, found := false, false
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			loadFailed = true
			continue
		}
		diags, timings := analysis.RunTimed(pkg, analyzers)
		for name, d := range timings {
			totals[name] += d
		}
		for _, d := range diags {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			if *asJSON {
				if err := enc.Encode(jsonDiag{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fmt.Fprintln(stderr, "fedomdvet:", err)
					return 2
				}
			} else {
				fmt.Fprintln(stdout, d)
			}
			found = true
		}
	}
	if *timing {
		names := make([]string, 0, len(totals))
		for name := range totals {
			names = append(names, name)
		}
		// Slowest first: the line exists to answer "where does lint time go".
		sort.Slice(names, func(i, j int) bool {
			if totals[names[i]] != totals[names[j]] {
				return totals[names[i]] > totals[names[j]]
			}
			return names[i] < names[j]
		})
		var parts []string
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s %s", name, totals[name].Round(10*time.Microsecond)))
		}
		fmt.Fprintf(stderr, "fedomdvet timing: %s\n", strings.Join(parts, ", "))
	}
	switch {
	case loadFailed:
		return 2
	case found:
		return 1
	}
	return 0
}

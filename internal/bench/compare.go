package bench

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of a comparison of one (metric, workload) pair.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
	Regressed  = "regressed"
)

// Judge compares a change's values of one metric with the parent's. worse
// and noise are shares of the parent's median, or absolute distances for a
// metric with an absolute bound. With fewer than two parent values the
// parent's own spread is unknown and the bound stands in for it.
func Judge(d MetricDef, parent, change []float64) (verdict string, worse, noise float64) {
	mp, mc := Median(parent), Median(change)
	worse = mc - mp
	if d.Better == higher {
		worse = -worse
	}
	noise = d.Bound
	if len(parent) >= 2 {
		q1, q3 := Quartiles(parent)
		noise = q3 - q1
	}
	if !d.Abs && mp != 0 {
		worse /= math.Abs(mp)
		if len(parent) >= 2 {
			noise /= math.Abs(mp)
		}
	}
	switch {
	case noise > d.Bound:
		return Unresolved, worse, noise
	case worse > d.Bound:
		return Regressed, worse, noise
	case -worse > noise:
		return Improved, worse, noise
	}
	return Unchanged, worse, noise
}

// Compare judges every end-to-end metric on every workload it applies to and
// prints one row each. It returns how many pairs regressed.
func Compare(w io.Writer, parent, change *Result) int {
	regressed := 0
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse", "noise", "bound", "verdict")
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			if d.Alias || !d.AppliesTo(wl.Name) {
				continue
			}
			a, b := parent.Values(wl.Name, d.Name), change.Values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, worse, noise := Judge(d, a, b)
			if verdict == Regressed {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-22s %12s %12s %+9.4f %9.4f %7.3f  %s\n",
				wl.Name, d.Name, formatValue(Median(a)), formatValue(Median(b)), worse, noise, d.Bound, verdict)
		}
	}
	return regressed
}

// SetsAgree checks that no untraced set's median is worse than another's by
// more than the bound, on every end-to-end metric: the benchmark repeating
// itself is the precondition for comparing anything with it. It returns the
// number of disagreements.
func SetsAgree(w io.Writer, r *Result) int {
	bad := 0
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			if d.Alias || !d.AppliesTo(wl.Name) {
				continue
			}
			var medians []float64
			for s := range r.Sets {
				if v := r.setValues(s, wl.Name, d.Name); len(v) > 0 {
					medians = append(medians, Median(v))
				}
			}
			for i, a := range medians {
				for j, b := range medians {
					if i == j {
						continue
					}
					if _, worse, _ := Judge(d, []float64{a}, []float64{b}); worse > d.Bound {
						bad++
						fmt.Fprintf(w, "sets disagree: %s %s set %d median %s, set %d median %s (%.4f beyond bound %.3f)\n",
							wl.Name, d.Name, i+1, formatValue(a), j+1, formatValue(b), worse, d.Bound)
					}
				}
			}
		}
	}
	return bad
}

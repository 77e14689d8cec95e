package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// TelemetryKey checks every metric/span name handed to internal/telemetry
// and internal/obs: the name must be a compile-time constant (dashboards,
// the expvar publisher, the Prometheus exposition mapping and the JSONL
// trace schema key on exact strings — a name computed at run time silently
// forks a metric series) and must follow the pkg/snake_case convention used
// by every existing fed/*, rpc/*, ad/* and mat/* key. Trace span attribute
// keys (obs.KV, Span.SetAttr) must likewise be constants, in single-segment
// snake_case — the span name already carries the pkg/ prefix.
//
// The telemetry and obs packages themselves are exempt: their fan-out
// plumbing (multi, Span.End, Spans.Start) forwards caller-supplied names
// through variables by design.
var TelemetryKey = &Analyzer{
	Name: "telemetrykey",
	Doc:  "telemetry counter/span names must be pkg/snake_case compile-time constants",
	Run:  runTelemetryKey,
}

// telemetryNameArg maps the telemetry entry points to the index of their
// name parameter.
var telemetryNameArg = map[string]int{
	"NewCounter": 0,
	"Count":      0,
	"Gauge":      0,
	"Observe":    0,
}

// obsNameArg maps the obs entry points to the index of their span or event
// name parameter: Spans.Start's name also keys the span's latency histogram.
var obsNameArg = map[string]int{
	"Start": 1,
	"Event": 1,
}

// obsAttrArg maps the obs attribute entry points to the index of their
// attribute-key parameter.
var obsAttrArg = map[string]int{
	"KV":      0,
	"SetAttr": 0,
}

func runTelemetryKey(p *Pass) {
	if p.Pkg.Path() == pathTelemetry || p.Pkg.Path() == pathObs {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case pathTelemetry:
				if idx, ok := telemetryNameArg[fn.Name()]; ok {
					checkKeyArg(p, call, fn.Name(), idx, "telemetry key", snakeKeyRE,
						"pkg/snake_case (two or more /-separated [a-z0-9_]+ segments)")
				}
			case pathObs:
				if idx, ok := obsNameArg[fn.Name()]; ok {
					checkKeyArg(p, call, fn.Name(), idx, "trace span name", snakeKeyRE,
						"pkg/snake_case (two or more /-separated [a-z0-9_]+ segments)")
				}
				if idx, ok := obsAttrArg[fn.Name()]; ok {
					checkKeyArg(p, call, fn.Name(), idx, "span attribute key", attrKeyRE,
						"single-segment snake_case ([a-z0-9_]+, no slashes)")
				}
			}
			return true
		})
	}
}

// checkKeyArg verifies one name argument is a compile-time constant matching
// the convention re, reporting under the given kind label.
func checkKeyArg(p *Pass, call *ast.CallExpr, fnName string, idx int, kind string, re *regexp.Regexp, want string) {
	if idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
	tv, ok := p.Info.Types[arg]
	if !ok {
		return
	}
	if tv.Value == nil {
		p.Reportf(arg.Pos(), "%s passed to %s must be a compile-time constant, got %s", kind, fnName, exprString(arg))
		return
	}
	if key := constant.StringVal(tv.Value); !re.MatchString(key) {
		p.Reportf(arg.Pos(), "%s %q must match %s", kind, key, want)
	}
}

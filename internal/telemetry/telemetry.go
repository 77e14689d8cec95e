// Package telemetry is the observability substrate of the federated runtime:
// a Recorder interface for counters, gauges and histograms (with quantile
// summaries), a zero-allocation no-op default so instrumented hot paths cost
// nothing when telemetry is disabled, and two concrete sinks —
// an in-memory Aggregator that renders a per-run text report, and a JSONL
// trace writer for machine-readable per-event output.
//
// Layered packages (fed, experiments, cmd) thread a Recorder explicitly; leaf
// packages on the hot path (ad, sparse) use package-global atomic Counters
// instead, which the report and expvar surfaces pick up without any plumbing.
//
// All Recorder implementations in this package are safe for concurrent use —
// fed.Run drives clients from goroutines within a round.
package telemetry

// Recorder receives telemetry events. Implementations must be safe for
// concurrent use. Metric names are slash-separated paths; histogram names
// carrying durations end in "_seconds" so reports can format them as times.
type Recorder interface {
	// Enabled reports whether events are consumed at all. Instrumentation
	// uses it to skip event construction (notably the clock reads of
	// obs.Spans) when telemetry is off.
	Enabled() bool
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to its latest value.
	Gauge(name string, v float64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
}

// nop discards everything. It is the default Recorder: value receiver, no
// state, and Enabled() == false lets call sites skip clock reads entirely.
type nop struct{}

func (nop) Enabled() bool           { return false }
func (nop) Count(string, int64)     {}
func (nop) Gauge(string, float64)   {}
func (nop) Observe(string, float64) {}

// Nop is the zero-cost default Recorder.
var Nop Recorder = nop{}

// Or returns r, or Nop when r is nil, so call sites can hold an always
// non-nil Recorder.
func Or(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// multi fans events out to several recorders.
type multi []Recorder

// Multi returns a Recorder forwarding every event to each non-nil recorder.
// With zero or one usable recorder it avoids the fan-out indirection.
func Multi(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r != nil && r.Enabled() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multi(live)
}

func (m multi) Enabled() bool { return true }
func (m multi) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}
func (m multi) Gauge(name string, v float64) {
	for _, r := range m {
		r.Gauge(name, v)
	}
}
func (m multi) Observe(name string, v float64) {
	for _, r := range m {
		r.Observe(name, v)
	}
}

package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"fedomd/internal/mat"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness check. A failed check is a failed operation.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// WorkloadResult is what one run of one workload produced.
type WorkloadResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []Check           `json:"checks"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are printed under the metrics: sample counts, the accounting
	// of a round, anything a reader needs to trust a number.
	Notes []string `json:"notes,omitempty"`

	spans []Span // a traced run's spans, written out by the caller
}

// Spans returns the spans a traced run recorded.
func (r *WorkloadResult) Spans() []Span { return r.spans }

func newResult(workload string, o Options) *WorkloadResult {
	return &WorkloadResult{Workload: workload, Traced: o.Trace, Seed: o.Seed, Metrics: map[string]Metric{}}
}

// set records a metric under its defined unit. Recording a name that has no
// definition is a bug in the harness, not in the program under test.
func (r *WorkloadResult) set(name string, v float64) {
	d, ok := FindDef(name)
	if !ok {
		panic("bench: metric without a definition: " + name)
	}
	r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
}

// check records a correctness check and counts a failure as one failed
// operation.
func (r *WorkloadResult) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Failed++
	}
	r.Checks = append(r.Checks, c)
}

func (r *WorkloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether every check passed.
func (r *WorkloadResult) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Print writes "workload metric value unit" for every metric, sorted by
// name, then failed checks and notes.
func (r *WorkloadResult) Print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, formatValue(m.Value), m.Unit)
	}
	fmt.Fprintf(w, "%s operations attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "%s CHECK FAILED %s: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 7, 64) }

// DriverLine is the last line of a single-workload run: exactly the keys
// correct, attempted, failed and metrics, with every end-to-end gate metric
// (untraced) or every per-layer metric (traced).
func (r *WorkloadResult) DriverLine() ([]byte, error) {
	metrics := map[string]Metric{}
	if r.Traced {
		for _, d := range PerLayer {
			m, ok := r.Metrics[d.Name]
			if !ok {
				m = Metric{Unit: d.Unit} // not exercised by this workload
			}
			metrics[d.Name] = m
		}
	} else {
		for _, d := range EndToEnd {
			if !d.Gate {
				continue
			}
			m, ok := r.Metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("bench: %s did not report %s", r.Workload, d.Name)
			}
			metrics[d.Name] = m
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
}

// Envelope says what produced a result and on what.
type Envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       bool   `json:"simd"`
	MatWorkers int    `json:"mat_workers"`
	Seed       int64  `json:"seed"`
	RunSeconds int    `json:"run_seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
}

// CollectEnvelope describes the running binary and box.
func CollectEnvelope(seed int64, seconds int, smoke bool) Envelope {
	return Envelope{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       mat.SIMDEnabled(),
		MatWorkers: mat.Workers(),
		Seed:       seed,
		RunSeconds: seconds,
		Smoke:      smoke,
	}
}

// commit prefers the revision stamped into the binary and falls back to
// asking git; an exported tree without history reads "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Result is a full run: one or more untraced sets, each holding one or more
// runs of every workload, then one traced pass.
type Result struct {
	Envelope Envelope            `json:"envelope"`
	Sets     [][]*WorkloadResult `json:"sets"`
	Traced   []*WorkloadResult   `json:"traced"`
}

// WriteFile stores the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResult loads a result written by WriteFile.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: reading %s: %w", path, err)
	}
	return &r, nil
}

// Values returns an end-to-end metric's value in every untraced run that
// has it.
func (r *Result) Values(workload, metric string) []float64 {
	var out []float64
	for s := range r.Sets {
		out = append(out, r.setValues(s, workload, metric)...)
	}
	return out
}

func (r *Result) setValues(set int, workload, metric string) []float64 {
	var out []float64
	for _, w := range r.Sets[set] {
		if m, ok := w.Metrics[metric]; ok && w.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM).
func PeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

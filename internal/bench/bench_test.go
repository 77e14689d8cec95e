package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {400000, 99.9},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := Quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || Median(v) != 5.5 {
		t.Fatalf("quartiles %g %g median %g, want 2.75 8.25 5.5", q1, q3, Median(v))
	}
}

// fakeClock oversleeps every Sleep by a fixed amount, as a loaded box does.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now = c.now.Add(d + c.oversleep)
}
func (c *fakeClock) Yield() { c.now = c.now.Add(40 * time.Microsecond) }

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start, oversleep: 2500 * time.Microsecond}
	due := []time.Duration{10 * time.Millisecond, 10*time.Millisecond + 100*time.Microsecond, 30 * time.Millisecond}
	var firedDue []time.Time
	var firedAt []time.Time
	late := OpenLoop(c, start, due, func(i int, d time.Time) {
		firedDue = append(firedDue, d)
		firedAt = append(firedAt, c.now)
		// A slow system must not delay later arrivals: the request "takes"
		// 50 ms but fire returns at once, as a started goroutine would.
	})
	if len(firedDue) != 3 {
		t.Fatalf("fired %d of 3", len(firedDue))
	}
	for i := range due {
		if want := start.Add(due[i]); !firedDue[i].Equal(want) {
			t.Errorf("request %d timed from %v, want its due time %v", i, firedDue[i], want)
		}
		if got := firedAt[i].Sub(start.Add(due[i])); got != late[i] || got < 0 {
			t.Errorf("request %d: reported lateness %v, actually fired %v after due", i, late[i], got)
		}
	}
	// The first sleep targets 8 ms (due minus slack) and wakes at 10.5 ms:
	// both early requests fire at once, 500 and 400 µs late.
	if late[0] != 500*time.Microsecond || late[1] != 400*time.Microsecond {
		t.Errorf("lateness %v %v, want 500µs 400µs", late[0], late[1])
	}
	if c.sleeps != 2 {
		t.Errorf("slept %d times, want 2 (once per gap longer than the slack)", c.sleeps)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	tr := NewTrace(time.Unix(1000, 0))
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.Add("run", LevelRun, "", -1, at(0), at(100))
	tr.Add("round", LevelRound, "", 0, at(10), at(90))
	tr.Add("a", LevelCall, "p0", 0, at(20), at(40))
	tr.Add("b", LevelCall, "p1", 0, at(30), at(60)) // overlaps a: covered once
	tr.Add("rpc", LevelRPC, "p2", 0, at(65), at(85))
	tr.Add("handler", LevelCall, "p2", 0, at(70), at(80)) // nests under its own party's rpc
	tr.Add("late", LevelPart, "p2", 0, at(70), at(72))
	spans := tr.Finish()
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	ms := func(name string) float64 { return float64(byName[name].Self) / 1e6 }
	if got := ms("run"); got != 20 {
		t.Errorf("run self %g ms, want 20", got)
	}
	// 80 ms less the union of a∪b (20..60) and rpc (65..85).
	if got := ms("round"); got != 20 {
		t.Errorf("round self %g ms, want 20", got)
	}
	if got := ms("rpc"); got != 10 {
		t.Errorf("rpc self %g ms, want 10", got)
	}
	if got := ms("handler"); got != 8 {
		t.Errorf("handler self %g ms, want 8", got)
	}
	if p := byName["handler"].Parent; p != byName["rpc"].ID {
		t.Errorf("handler's parent is %d, want the rpc span %d", p, byName["rpc"].ID)
	}
	if p := byName["a"].Parent; p != byName["round"].ID {
		t.Errorf("a's parent is %d, want the round span %d", p, byName["round"].ID)
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, "w", spans); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(spans) {
		t.Errorf("wrote %d lines for %d spans", n, len(spans))
	}
}

// plain, moment and aux are minimal clients with one, two and three of the
// capability surfaces fed.Run looks for.
type plain struct{ p *nn.Params }

func (c *plain) Name() string                    { return "plain" }
func (c *plain) NumSamples() int                 { return 1 }
func (c *plain) Params() *nn.Params              { return c.p }
func (c *plain) SetParams(*nn.Params) error      { return nil }
func (c *plain) TrainLocal(int) (float64, error) { return 0.5, nil }
func (c *plain) EvalVal() (int, int)             { return 1, 2 }
func (c *plain) EvalTest() (int, int)            { return 1, 2 }

type moment struct{ plain }

func (c *moment) LocalMeans() ([]*mat.Dense, int, error) { return nil, 3, nil }
func (c *moment) CentralAroundGlobal([]*mat.Dense) ([][]*mat.Dense, int, error) {
	return nil, 3, nil
}
func (c *moment) SetGlobalStats([]*mat.Dense, [][]*mat.Dense) {}

type aux struct{ plain }

func (c *aux) UploadAux() *nn.Params        { return c.p }
func (c *aux) DownloadAux(*nn.Params) error { return nil }

type momentAux struct{ moment }

func (c *momentAux) UploadAux() *nn.Params        { return c.p }
func (c *momentAux) DownloadAux(*nn.Params) error { return nil }

func TestDecoratorKeepsMomentAndAuxSurfaces(t *testing.T) {
	for _, c := range []struct {
		inner               fed.Client
		wantMoment, wantAux bool
	}{
		{&plain{}, false, false},
		{&moment{}, true, false},
		{&aux{}, false, true},
		{&momentAux{}, true, true},
	} {
		log := &CallLog{}
		d := Decorate(c.inner, log)
		mc, isMoment := d.(fed.MomentClient)
		ac, isAux := d.(fed.AuxClient)
		if isMoment != c.wantMoment || isAux != c.wantAux {
			t.Errorf("%T decorated: moment %v aux %v, want %v %v", c.inner, isMoment, isAux, c.wantMoment, c.wantAux)
		}
		if loss, err := d.TrainLocal(0); loss != 0.5 || err != nil {
			t.Errorf("%T: TrainLocal passed through as %v, %v", c.inner, loss, err)
		}
		want := []string{OpTrainLocal}
		if isMoment {
			if _, n, _ := mc.LocalMeans(); n != 3 {
				t.Errorf("%T: LocalMeans count %d, want 3", c.inner, n)
			}
			want = append(want, OpLocalMeans)
		}
		if isAux {
			ac.UploadAux()
			want = append(want, OpAux)
		}
		calls := log.Calls()
		if len(calls) != len(want) {
			t.Fatalf("%T: logged %d calls, want %d", c.inner, len(calls), len(want))
		}
		for i, call := range calls {
			if call.Op != want[i] || call.Party != "plain" || call.End.Before(call.Start) {
				t.Errorf("%T: call %d is %+v, want op %s", c.inner, i, call, want[i])
			}
		}
	}
}

func TestDriverLineGolden(t *testing.T) {
	r := newResult(TrainDense, Options{Seed: 7})
	r.Attempted = 100
	for i, d := range EndToEnd {
		if d.Gate {
			r.set(d.Name, float64(i)+0.5)
		}
	}
	r.set("round_p50_ms", 1.25) // a named metric: in the result, not in the line
	r.check("finite_loss", true, "")
	line, err := r.DriverLine()
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"correct":true,"attempted":100,"failed":0,"metrics":{` +
		`"op_p50_ms":{"value":2.5,"unit":"ms"},"op_tail_ms":{"value":3.5,"unit":"ms"},` +
		`"ops_per_s":{"value":4.5,"unit":"1/s"},"peak_rss_mb":{"value":1.5,"unit":"MB"},` +
		`"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != golden {
		t.Errorf("driver line\n got %s\nwant %s", line, golden)
	}

	r.check("val_floor", false, "too low")
	r.Traced = true
	line, err = r.DriverLine()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct bool
		Failed  int
		Metrics map[string]Metric
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != 1 || len(got.Metrics) != len(PerLayer) {
		t.Errorf("traced line: correct %v failed %d metrics %d, want false 1 %d", got.Correct, got.Failed, len(got.Metrics), len(PerLayer))
	}

	full := &Result{Envelope: Envelope{Commit: "abc", GoVersion: "go1.x", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2, Seed: 7, RunSeconds: 12}}
	r.Traced, r.Checks, r.Failed = false, r.Checks[:1], 0
	r.Metrics = map[string]Metric{"setup_s": {Value: 0.5, Unit: "s"}}
	full.Sets = [][]*WorkloadResult{{r}}
	b, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	const goldenResult = `{"envelope":{"commit":"abc","go_version":"go1.x","goarch":"amd64","num_cpu":2,"gomaxprocs":2,` +
		`"simd":false,"mat_workers":0,"seed":7,"run_seconds":12},"sets":[[{"workload":"train_dense","traced":false,"seed":7,` +
		`"attempted":100,"failed":0,"checks":[{"name":"finite_loss","ok":true}],"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}]],"traced":null}`
	if string(b) != goldenResult {
		t.Errorf("result JSON\n got %s\nwant %s", b, goldenResult)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	d := MetricDef{Name: "round_p50_ms", Better: lower, Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", steady, steady, Unchanged},
		{"slower beyond bound", steady, []float64{110, 111, 109}, Regressed},
		{"slower within bound", steady, []float64{105, 104, 106}, Unchanged},
		{"faster beyond spread", steady, []float64{95, 94, 96}, Improved},
		{"parent too noisy", []float64{80, 120, 100, 90, 110, 85, 115, 95, 105, 100}, []float64{140}, Unresolved},
		{"single runs, gain within bound", []float64{100}, []float64{95}, Unchanged},
		{"single runs, gain beyond bound", []float64{100}, []float64{90}, Improved},
	} {
		if got, _, _ := Judge(d, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	acc := MetricDef{Name: "test_acc", Better: higher, Bound: 0.02, Abs: true}
	if got, worse, _ := Judge(acc, []float64{0.90}, []float64{0.87}); got != Regressed || math.Abs(worse-0.03) > 1e-12 {
		t.Errorf("absolute bound: %s worse %g, want regressed 0.03", got, worse)
	}
}

// TestBenchmarkJSONMatchesDefs keeps the contract file at the repository root
// in step with the definitions here and inside the contract's limits.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, want the nominal window %d", f.RunSeconds, nominalSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range f.Workloads {
		use(w.Name, "")
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d is %q / %q, want %q / %q (one line, at most 200 characters)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	var gate []MetricDef
	for _, d := range EndToEnd {
		if d.Gate {
			gate = append(gate, d)
		}
	}
	if len(f.EndToEnd) != len(gate) {
		t.Fatalf("%d end-to-end metrics, want the %d gate metrics", len(f.EndToEnd), len(gate))
	}
	largest := 0.0
	for i, m := range f.EndToEnd {
		use(m.Name, m.Unit)
		d := gate[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must be listed and carry the largest bound (%g)", largest)
	}
	if len(f.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(f.PerLayer), len(PerLayer))
	}
	for i, m := range f.PerLayer {
		use(m.Name, m.Unit)
		if d := PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

// TestSmokeEveryWorkload runs all six workloads at toy size, untraced and
// traced, and checks that each produces the line the contract asks for.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			r, err := Run(w.Name, Options{Seed: 3, Smoke: true, Trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if r.Attempted < 1 {
				t.Errorf("%s traced=%v: no operation attempted", w.Name, traced)
			}
			if _, err := r.DriverLine(); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, d := range EndToEnd {
				if m, ok := r.Metrics[d.Name]; d.Gate && (!ok || m.Value <= 0) {
					t.Errorf("%s traced=%v: gate metric %s = %v, must be positive", w.Name, traced, d.Name, m.Value)
				}
			}
			if traced && len(r.Spans()) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.Name)
			}
		}
	}
}

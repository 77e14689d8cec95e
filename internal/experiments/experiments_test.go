package experiments

import (
	"fmt"
	"strings"
	"testing"

	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/partition"
	"fedomd/internal/telemetry"
)

func smokeRunner() *Runner { return NewRunner(SmokeScale(), 1) }

func TestModelNamesComplete(t *testing.T) {
	names := ModelNames()
	if len(names) != 8 {
		t.Fatalf("expected 8 models, got %d", len(names))
	}
	if names[len(names)-1] != ModelFedOMD {
		t.Fatal("FedOMD should be the last row, as in the paper")
	}
}

func TestBuildClientsUnknownModel(t *testing.T) {
	r := smokeRunner()
	g, err := r.loadGraph(dataset.Cora, 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := r.parties(g, 2, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.buildClients("NotAModel", parties, 3, buildOpts{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestEveryModelRunsOneCell(t *testing.T) {
	r := smokeRunner()
	for _, model := range ModelNames() {
		cell, err := r.cell(model, dataset.Cora, 2, 1.0, buildOpts{})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if len(cell.Runs) != r.Scale.Seeds {
			t.Fatalf("%s: %d runs want %d", model, len(cell.Runs), r.Scale.Seeds)
		}
		if cell.Mean() < 0 || cell.Mean() > 1 {
			t.Fatalf("%s: accuracy %v out of range", model, cell.Mean())
		}
	}
}

func TestTable2Renders(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Table2(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range dataset.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 2 missing %s:\n%s", name, out)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Table3(&b, dataset.Cora, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, model := range ModelNames() {
		if !strings.Contains(out, model) {
			t.Fatalf("Table 3 missing %s:\n%s", model, out)
		}
	}
	if !strings.Contains(out, "UploadBytes") {
		t.Fatal("Table 3 missing communication column")
	}
}

func TestTable4SmokeSubset(t *testing.T) {
	var b strings.Builder
	r := smokeRunner()
	if err := r.Table4(&b, []string{dataset.Cora}, []int{2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "FedOMD") || !strings.Contains(out, "M=2") {
		t.Fatalf("Table 4 malformed:\n%s", out)
	}
}

func TestTable6AblationSmoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Table6(&b, []string{dataset.Cora}, []int{2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, v := range []string{"Ortho only", "CMD only", "Ortho+CMD"} {
		if !strings.Contains(out, v) {
			t.Fatalf("Table 6 missing %q:\n%s", v, out)
		}
	}
}

func TestTable7DepthSmoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Table7(&b, []string{dataset.Cora}, []int{2}, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "FedOMD 4-hidden") || !strings.Contains(out, "FedGCN 2-GCNConv") {
		t.Fatalf("Table 7 malformed:\n%s", out)
	}
}

func TestFigure4Smoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Figure4(&b, dataset.Cora, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "party 0") || !strings.Contains(out, "non-iid score") {
		t.Fatalf("Figure 4 malformed:\n%s", out)
	}
}

func TestFigure5Smoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Figure5(&b, dataset.Cora, 2, []string{ModelFedOMD, ModelFedGCN}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "r0") || !strings.Contains(out, "FedOMD") {
		t.Fatalf("Figure 5 malformed:\n%s", out)
	}
}

func TestFigure6Smoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Figure6(&b, []string{dataset.Cora}, []float64{5e-4}, []float64{10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "alpha") {
		t.Fatalf("Figure 6 malformed:\n%s", b.String())
	}
}

func TestFigure7Smoke(t *testing.T) {
	var b strings.Builder
	if err := smokeRunner().Figure7(&b, []string{dataset.Cora}, []float64{1, 20}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), dataset.Cora) {
		t.Fatalf("Figure 7 malformed:\n%s", b.String())
	}
}

// The worker pool must not change any number: a grid evaluated with one
// worker and with many must render byte-identical tables, because every cell
// draws all randomness from the seed schedule.
func TestParallelGridMatchesSerial(t *testing.T) {
	render := func(jobs int) string {
		t.Helper()
		var b strings.Builder
		r := smokeRunner().WithJobs(jobs)
		if err := r.Table4(&b, []string{dataset.Cora}, []int{2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := r.Figure7(&b, []string{dataset.Cora}, []float64{1, 20}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("parallel grid diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// A failing cell must surface as the first error in spec order, regardless of
// which worker hits it first.
func TestRunCellsErrorPropagation(t *testing.T) {
	r := smokeRunner().WithJobs(4)
	specs := []cellSpec{
		{label: "ok", model: ModelFedMLP, ds: dataset.Cora, m: 2, resolution: 1.0},
		{label: "first-bad", model: "NotAModel", ds: dataset.Cora, m: 2, resolution: 1.0},
		{label: "second-bad", model: "AlsoNotAModel", ds: dataset.Cora, m: 2, resolution: 1.0},
	}
	_, err := r.runCells(specs)
	if err == nil {
		t.Fatal("runCells swallowed the failure")
	}
	if !strings.Contains(err.Error(), "first-bad") {
		t.Fatalf("expected the first failing spec's label, got: %v", err)
	}
}

func TestScalesValid(t *testing.T) {
	for _, s := range []Scale{QuickScale(), SmokeScale(), PaperScale()} {
		if s.Rounds <= 0 || s.Seeds <= 0 || s.Hidden <= 0 || s.DatasetDivisor <= 0 {
			t.Fatalf("invalid scale %+v", s)
		}
	}
	if PaperScale().DatasetDivisor != 1 {
		t.Fatal("paper scale must be unscaled")
	}
}

func TestDefaultResolutionMatchesPaper(t *testing.T) {
	if defaultResolution(dataset.Computer) != 20 || defaultResolution(dataset.Photo) != 20 {
		t.Fatal("co-purchase datasets should use resolution 20 (§5.1)")
	}
	if defaultResolution(dataset.Cora) != 1.0 {
		t.Fatal("citation datasets should use the default resolution")
	}
}

// tapeSpy counts the tape ops recorded inside EvalTest.
type tapeSpy struct {
	fed.Client
	evalTestOps int64
}

func (s *tapeSpy) EvalTest() (int, int) {
	before := telemetry.GlobalCounters()["ad/tape_ops"]
	defer func() { s.evalTestOps = telemetry.GlobalCounters()["ad/tape_ops"] - before }()
	return s.Client.EvalTest()
}

func table3Parties(t *testing.T, r *Runner, m int) []partition.Party {
	t.Helper()
	g, err := r.loadGraph(dataset.Cora, 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := r.parties(g, m, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return parties
}

// Table 3's inference column must time a forward, also for clients that keep
// their predictions per parameter version and were evaluated before.
func TestTable3InferenceIsAColdPass(t *testing.T) {
	r := smokeRunner()
	parties := table3Parties(t, r, 2)
	for _, model := range ModelNames() {
		clients, _, err := r.buildClients(model, parties, 3, buildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		clients[0].EvalTest()
		spy := &tapeSpy{Client: clients[0]}
		clients[0] = spy
		if _, _, _, err := timeRound(clients); err != nil {
			t.Fatal(err)
		}
		if spy.evalTestOps == 0 {
			t.Fatalf("%s: the timed EvalTest recorded no forward", model)
		}
	}
}

// Table 3's upload column must be what one round of fed.Run books per party,
// at any configured moment order.
func TestTable3UploadMatchesRuntimeBytes(t *testing.T) {
	r := smokeRunner()
	parties := table3Parties(t, r, 2)
	fleets := map[string]func() []fed.Client{}
	for _, model := range ModelNames() {
		if model == ModelLocGCN {
			continue // trains without federation: nothing is booked
		}
		fleets[model] = func() []fed.Client {
			clients, _, err := r.buildClients(model, parties, 3, buildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return clients
		}
	}
	fleets["FedOMD order 3"] = func() []fed.Client {
		cfg := core.DefaultConfig()
		cfg.Hidden, cfg.MaxOrder = 8, 3
		var clients []fed.Client
		for i, p := range parties {
			c, err := core.NewClient(fmt.Sprintf("p%d", i), p.Graph, cfg, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		return clients
	}
	for name, build := range fleets {
		want := int64(0)
		for _, c := range build() {
			n, err := uploadBytes(c)
			if err != nil {
				t.Fatal(err)
			}
			want += int64(n)
		}
		res, err := fed.Run(fed.Config{Rounds: 1}, build())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.History[0].BytesUp; got != want {
			t.Fatalf("%s: fed.Run booked %d bytes up, Table 3 says %d", name, got, want)
		}
	}
}

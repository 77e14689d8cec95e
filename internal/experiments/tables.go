package experiments

import (
	"fmt"
	"io"
	"time"

	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/metrics"
	"fedomd/internal/nn"
)

// Table2 regenerates the dataset-statistics table: for each preset, the
// generated graph's node/edge/class/feature counts at the current scale.
func (r *Runner) Table2(w io.Writer) error {
	progress(w, "== Table 2: dataset statistics (scale=%s) ==", r.Scale.Name)
	tbl := metrics.NewTable("Dataset", "#Nodes", "#Edges", "#Classes", "#Features", "Homophily")
	for _, name := range dataset.Names() {
		g, err := r.loadGraph(name, r.BaseSeed)
		if err != nil {
			return err
		}
		s := g.Summary()
		tbl.AddRow(name,
			fmt.Sprint(s.Nodes), fmt.Sprint(s.Edges),
			fmt.Sprint(s.Classes), fmt.Sprint(s.Features),
			fmt.Sprintf("%.3f", s.Homophily))
	}
	return tbl.Render(w)
}

// Table3 measures the empirical counterpart of the complexity table: per
// model, the wall-clock client time for one local round, the server
// aggregation time over M parties, the inference (eval) time, and the bytes
// a client uploads per round (weights plus, for FedOMD, the moment
// statistics whose negligible size §4.4 claims).
func (r *Runner) Table3(w io.Writer, ds string, m int) error {
	progress(w, "== Table 3: measured time & communication (dataset=%s, M=%d, scale=%s) ==", ds, m, r.Scale.Name)
	g, err := r.loadGraph(ds, r.BaseSeed)
	if err != nil {
		return err
	}
	parties, err := r.parties(g, m, defaultResolution(ds), r.BaseSeed+7)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("Model", "ClientTime/round", "ServerTime/round", "InferenceTime", "UploadBytes/round")
	for _, model := range ModelNames() {
		clients, _, err := r.buildClients(model, parties, r.BaseSeed+13, buildOpts{})
		if err != nil {
			return err
		}
		clientTime, serverTime, inferTime, err := timeRound(clients)
		if err != nil {
			return err
		}
		upload, err := uploadBytes(clients[0])
		if err != nil {
			return err
		}
		tbl.AddRow(model,
			clientTime.Round(time.Microsecond).String(),
			serverTime.Round(time.Microsecond).String(),
			inferTime.Round(time.Microsecond).String(),
			fmt.Sprint(upload))
	}
	return tbl.Render(w)
}

// timeRound measures Table 3's three wall-clock columns on a freshly built
// fleet. The inference column is a cold evaluation pass: it is timed right
// after TrainLocal and Params(), either of which drops any predictions a
// client keeps per parameter version, so EvalTest pays for its forward.
func timeRound(clients []fed.Client) (clientTime, serverTime, inferTime time.Duration, err error) {
	// Client time: one local training round on every party, reporting the
	// slowest, the party a synchronous round waits for. A party without
	// labelled nodes returns at once, so one party alone may not train.
	for _, c := range clients {
		t0 := time.Now()
		if _, err := c.TrainLocal(0); err != nil {
			return 0, 0, 0, err
		}
		clientTime = max(clientTime, time.Since(t0))
	}

	// Server time: one FedAvg aggregation over all parties.
	sets := make([]*nn.Params, len(clients))
	weights := make([]float64, len(clients))
	for i, c := range clients {
		sets[i] = c.Params()
		weights[i] = 1
	}
	t0 := time.Now()
	if _, err := nn.Average(sets, weights); err != nil {
		return 0, 0, 0, err
	}
	serverTime = time.Since(t0)

	// Inference time: one evaluation pass.
	t0 = time.Now()
	clients[0].EvalTest()
	inferTime = time.Since(t0)
	return clientTime, serverTime, inferTime, nil
}

// uploadBytes is what one party uploads per round as fed.Run books it: the
// weights, an aux client's auxiliary state (SCAFFOLD's control variate), and
// for a moment client Algorithm 1's two statistics trips — every mean and
// central-moment vector and one count word per trip.
func uploadBytes(c fed.Client) (int, error) {
	upload := c.Params().Bytes()
	if ac, ok := c.(fed.AuxClient); ok {
		upload += ac.UploadAux().Bytes()
	}
	mc, ok := c.(fed.MomentClient)
	if !ok {
		return upload, nil
	}
	means, _, err := mc.LocalMeans()
	if err != nil {
		return 0, err
	}
	moms, _, err := mc.CentralAroundGlobal(means)
	if err != nil {
		return 0, err
	}
	upload += 2 * 8
	for l, mean := range means {
		upload += 8 * mean.Cols() * (1 + len(moms[l]))
	}
	return upload, nil
}

// Table4 regenerates the headline comparison: accuracy (mean ± std over
// seeds) of all eight models on the four datasets with M ∈ parties.
func (r *Runner) Table4(w io.Writer, datasets []string, parties []int) error {
	if len(datasets) == 0 {
		datasets = []string{dataset.Cora, dataset.Citeseer, dataset.Computer, dataset.Photo}
	}
	if len(parties) == 0 {
		parties = []int{3, 5, 7, 9}
	}
	var specs []cellSpec
	for _, ds := range datasets {
		for _, model := range ModelNames() {
			for _, m := range parties {
				specs = append(specs, cellSpec{
					label: fmt.Sprintf("table4 %s/%s/M=%d", ds, model, m),
					model: model, ds: ds, m: m, resolution: defaultResolution(ds),
				})
			}
		}
	}
	cells, err := r.runCells(specs)
	if err != nil {
		return err
	}
	next := 0
	for _, ds := range datasets {
		progress(w, "== Table 4: %s (scale=%s) ==", ds, r.Scale.Name)
		header := []string{"Model"}
		for _, m := range parties {
			header = append(header, fmt.Sprintf("M=%d", m))
		}
		tbl := metrics.NewTable(header...)
		for _, model := range ModelNames() {
			row := []string{model}
			for range parties {
				row = append(row, cells[next].String())
				next++
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table5 regenerates the many-party experiment: Coauthor-CS with
// M ∈ {20, 50}.
func (r *Runner) Table5(w io.Writer, parties []int) error {
	if len(parties) == 0 {
		parties = []int{20, 50}
	}
	progress(w, "== Table 5: %s with many parties (scale=%s) ==", dataset.CoauthorCS, r.Scale.Name)
	header := []string{"Model"}
	for _, m := range parties {
		header = append(header, fmt.Sprintf("M=%d", m))
	}
	var specs []cellSpec
	for _, model := range ModelNames() {
		for _, m := range parties {
			specs = append(specs, cellSpec{
				label: fmt.Sprintf("table5 %s/M=%d", model, m),
				model: model, ds: dataset.CoauthorCS, m: m,
				resolution: defaultResolution(dataset.CoauthorCS),
			})
		}
	}
	cells, err := r.runCells(specs)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable(header...)
	next := 0
	for _, model := range ModelNames() {
		row := []string{model}
		for range parties {
			row = append(row, cells[next].String())
			next++
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}

// Table6 regenerates the ablation: FedOMD with {Ortho, CMD} switched on/off
// on Cora and Citeseer.
func (r *Runner) Table6(w io.Writer, datasets []string, parties []int) error {
	if len(datasets) == 0 {
		datasets = []string{dataset.Cora, dataset.Citeseer}
	}
	if len(parties) == 0 {
		parties = []int{3, 5, 7, 9}
	}
	tru, fls := true, false
	variants := []struct {
		label            string
		useOrtho, useCMD *bool
	}{
		{"Ortho only", &tru, &fls},
		{"CMD only", &fls, &tru},
		{"Ortho+CMD", &tru, &tru},
	}
	var specs []cellSpec
	for _, ds := range datasets {
		for _, v := range variants {
			for _, m := range parties {
				specs = append(specs, cellSpec{
					label: fmt.Sprintf("table6 %s/%s/M=%d", ds, v.label, m),
					model: ModelFedOMD, ds: ds, m: m, resolution: defaultResolution(ds),
					bo: buildOpts{useOrtho: v.useOrtho, useCMD: v.useCMD},
				})
			}
		}
	}
	cells, err := r.runCells(specs)
	if err != nil {
		return err
	}
	next := 0
	for _, ds := range datasets {
		progress(w, "== Table 6: ablation on %s (scale=%s) ==", ds, r.Scale.Name)
		header := []string{"Variant"}
		for _, m := range parties {
			header = append(header, fmt.Sprintf("M=%d", m))
		}
		tbl := metrics.NewTable(header...)
		for _, v := range variants {
			row := []string{v.label}
			for range parties {
				row = append(row, cells[next].String())
				next++
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table7 regenerates the depth study: FedOMD with {2,4,6,8,10} hidden layers
// on Computer and Photo, against the 2-layer FedGCN reference.
func (r *Runner) Table7(w io.Writer, datasets []string, parties []int, depths []int) error {
	if len(datasets) == 0 {
		datasets = []string{dataset.Computer, dataset.Photo}
	}
	if len(parties) == 0 {
		parties = []int{3, 5, 7, 9}
	}
	if len(depths) == 0 {
		depths = []int{2, 4, 6, 8, 10}
	}
	var specs []cellSpec
	for _, ds := range datasets {
		for _, depth := range depths {
			for _, m := range parties {
				specs = append(specs, cellSpec{
					label: fmt.Sprintf("table7 %s/depth=%d/M=%d", ds, depth, m),
					model: ModelFedOMD, ds: ds, m: m, resolution: defaultResolution(ds),
					bo: buildOpts{hiddenLayers: depth},
				})
			}
		}
		for _, m := range parties {
			specs = append(specs, cellSpec{
				label: fmt.Sprintf("table7 %s/fedgcn/M=%d", ds, m),
				model: ModelFedGCN, ds: ds, m: m, resolution: defaultResolution(ds),
			})
		}
	}
	cells, err := r.runCells(specs)
	if err != nil {
		return err
	}
	next := 0
	for _, ds := range datasets {
		progress(w, "== Table 7: depth study on %s (scale=%s) ==", ds, r.Scale.Name)
		header := []string{"Model/Layers"}
		for _, m := range parties {
			header = append(header, fmt.Sprintf("M=%d", m))
		}
		tbl := metrics.NewTable(header...)
		for _, depth := range depths {
			row := []string{fmt.Sprintf("FedOMD %d-hidden", depth)}
			for range parties {
				row = append(row, cells[next].String())
				next++
			}
			tbl.AddRow(row...)
		}
		row := []string{"FedGCN 2-GCNConv"}
		for range parties {
			row = append(row, cells[next].String())
			next++
		}
		tbl.AddRow(row...)
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

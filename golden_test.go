package fedomd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

var update = flag.Bool("update", false, "rewrite the golden trajectory file")

// goldenPath names the recorded trajectory for this build: float results
// depend on the architecture and on whether the SIMD kernels run.
func goldenPath() string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s-simd%t.txt", runtime.GOARCH, mat.SIMDEnabled()))
}

// hexFloat prints f exactly, so the file compares bit for bit.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// paramsDigest hashes every parameter's name, shape and float bits in
// registration order.
func paramsDigest(p *nn.Params) string {
	h := sha256.New()
	var buf [8]byte
	for _, name := range p.Names() {
		w := p.Get(name)
		fmt.Fprintf(h, "%s %dx%d\n", name, w.Rows(), w.Cols())
		for _, v := range w.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenTrajectory trains every model the way the CLI does (Cora ÷12, three
// Louvain parties, seed 1, ten rounds, no early stopping) and renders each
// round's training loss and accuracies plus a digest of the final model.
func goldenTrajectory(t *testing.T) []byte {
	t.Helper()
	const seed = 1
	g, err := GenerateDataset("cora", 12, seed)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := Partition(g, 3, 1.0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Rounds: 10, Patience: 0}
	var out bytes.Buffer
	for _, model := range Models() {
		var res *Result
		if model == FedOMD {
			res, err = TrainFedOMD(parties, DefaultConfig(), opts, seed+2)
		} else {
			res, err = TrainBaseline(model, parties, opts, seed+2)
		}
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for _, r := range res.History {
			fmt.Fprintf(&out, "%s round %d loss %s val %s test %s\n", model, r.Round,
				hexFloat(r.TrainLoss), hexFloat(r.ValAcc), hexFloat(r.TestAcc))
		}
		fmt.Fprintf(&out, "%s params %s\n", model, paramsDigest(res.FinalParams))
	}
	return out.Bytes()
}

// TestGoldenTrajectory pins every model's training trajectory bit for bit
// to the recorded file for this architecture and SIMD setting. A change
// meant to leave the arithmetic alone must leave this test passing; rerun
// with -update only when the numbers are meant to move.
func TestGoldenTrajectory(t *testing.T) {
	got := goldenTrajectory(t)
	path := goldenPath()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no recorded trajectory for this build (%v); record one with go test -run TestGoldenTrajectory -update", err)
	}
	if len(want) == 0 {
		t.Fatalf("%s is empty; record it with go test -run TestGoldenTrajectory -update", path)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

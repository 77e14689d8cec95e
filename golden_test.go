package fedomd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// goldenCodecLegs are the in-process FedOMD runs that send every parameter
// set through a wire codec: the lossless XOR delta, both quantized tiers and
// quantized top-k, so the encoders' and decoders' bits are pinned along with
// the bytes they put on the wire.
var goldenCodecLegs = []struct {
	name  string
	codec string
	topK  float64
}{
	{"delta", "delta", 0},
	{"q8", "q8", 0},
	{"q4", "q4", 0},
	{"q8-top0.1", "q8", 0.1},
}

// writeGoldenRun renders one run: each round's training loss and accuracies
// as hex floats, then a digest of the final model.
func writeGoldenRun(out *bytes.Buffer, label string, res *Result) {
	for _, r := range res.History {
		fmt.Fprintf(out, "%s round %d loss %s val %s test %s\n", label, r.Round,
			hexFloat(r.TrainLoss), hexFloat(r.ValAcc), hexFloat(r.TestAcc))
	}
	fmt.Fprintf(out, "%s params %s\n", label, paramsDigest(res.FinalParams))
}

// goldenTrajectory trains every model the way the CLI does (Cora ÷12, three
// Louvain parties, seed 1, ten rounds, no early stopping) and renders each
// run with writeGoldenRun; then it reruns FedOMD once per codec leg, once
// under async aggregation and once over loopback TCP with the delta codec,
// adding each leg's traffic totals.
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
		res, err := TrainBaseline(model, parties, opts, seed+2)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		writeGoldenRun(&out, string(model), res)
	}
	for _, leg := range goldenCodecLegs {
		o := opts
		o.Codec, o.TopK = leg.codec, leg.topK
		res, err := TrainFedOMD(parties, DefaultConfig(), o, seed+2)
		if err != nil {
			t.Fatalf("%s/%s: %v", FedOMD, leg.name, err)
		}
		writeGoldenTraffic(&out, fmt.Sprintf("%s/%s", FedOMD, leg.name), res)
	}

	// Async buffered aggregation with the buffer as large as the fleet: every
	// round folds all parties in sorted order, so the run is deterministic.
	o := opts
	o.Aggregation, o.BufferK = "async", len(parties)
	res, err := TrainFedOMD(parties, DefaultConfig(), o, seed+2)
	if err != nil {
		t.Fatalf("%s/async: %v", FedOMD, err)
	}
	writeGoldenTraffic(&out, FedOMD+"/async", res)

	o = opts
	o.Codec = "delta"
	res = goldenTCPRun(t, parties, o, seed+2)
	writeGoldenTraffic(&out, FedOMD+"/tcp-delta", res)
	return out.Bytes()
}

// writeGoldenTraffic is writeGoldenRun plus the run's traffic totals.
func writeGoldenTraffic(out *bytes.Buffer, label string, res *Result) {
	writeGoldenRun(out, label, res)
	fmt.Fprintf(out, "%s bytes up %d down %d\n", label, res.TotalBytesUp, res.TotalBytesDown)
}

// acceptSignal reports every accepted connection, so the parties can be
// started one at a time and join the coordinator in party order.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// goldenTCPRun trains FedOMD over loopback TCP: each party is served from
// its own goroutine, named and seeded as TrainFedOMD names and seeds it, and
// dials only after the previous party's connection was accepted, so the
// coordinator sees the fleet in the in-process order.
func goldenTCPRun(t *testing.T, parties []Party, opts RunOptions, seed int64) *Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sig := acceptSignal{Listener: ln, accepted: make(chan struct{}, 1)}
	var fleet []Party
	for _, p := range parties {
		if p.Graph.NumNodes() > 0 {
			fleet = append(fleet, p)
		}
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := CoordinateFedOMD(sig, len(fleet), opts)
		done <- outcome{res, err}
	}()
	var wg sync.WaitGroup
	for i, p := range fleet {
		wg.Add(1)
		go func(i int, p Party) {
			defer wg.Done()
			if err := ServeParty(ln.Addr().String(), fmt.Sprintf("party-%d", i), p, DefaultConfig(), seed+int64(i)+1); err != nil {
				t.Errorf("party-%d: %v", i, err)
			}
		}(i, p)
		select {
		case <-sig.accepted:
		case out := <-done:
			t.Fatalf("%s/tcp: coordinator returned before party-%d joined: %v", FedOMD, i, out.err)
		}
	}
	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatalf("%s/tcp: %v", FedOMD, out.err)
	}
	return out.res
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

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/obs"
)

func startTestServer(t *testing.T, s *Service) *obs.HTTPServer {
	t.Helper()
	srv, err := obs.StartHTTPServer("127.0.0.1:0", Handler(s))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ShutdownTimeout(5 * time.Second) })
	return srv
}

func postClassify(t *testing.T, addr, body string) (int, string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPGolden pins the wire shape of the classify API byte for byte. The
// crafted integer weights make the logits exact, so this golden is
// machine-independent.
func TestHTTPGolden(t *testing.T) {
	const classes = 3
	g := testGraph(t, 9, classes)
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 7), g)
	srv := startTestServer(t, s)

	status, body := postClassify(t, srv.Addr(), `{"nodes":[0,4],"logits":true}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	// Node 0 has feature e0 -> class (0+7)%3 = 1, logits = W row 0 = e1.
	// Node 4 has feature e1 -> class (1+7)%3 = 2, logits = W row 1 = e2.
	golden := `{"model_round":7,"results":[{"node":0,"class":1,"logits":[0,1,0]},{"node":4,"class":2,"logits":[0,0,1]}]}` + "\n"
	if body != golden {
		t.Fatalf("response shape drifted:\ngot  %q\nwant %q", body, golden)
	}

	status, body = postClassify(t, srv.Addr(), `{"nodes":[2]}`)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	goldenNoLogits := `{"model_round":7,"results":[{"node":2,"class":0}]}` + "\n"
	if body != goldenNoLogits {
		t.Fatalf("no-logits shape drifted:\ngot  %q\nwant %q", body, goldenNoLogits)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	const classes = 3
	g := testGraph(t, 6, classes)
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	srv := startTestServer(t, s)

	// No model yet: classify 503, healthz critical 503.
	if status, _ := postClassify(t, srv.Addr(), `{"nodes":[0]}`); status != 503 {
		t.Fatalf("no-model classify status %d want 503", status)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !bytes.Contains(hb, []byte(RuleNoModel)) {
		t.Fatalf("no-model healthz: %d %s", resp.StatusCode, hb)
	}

	swapFromCheckpoint(t, s, fedomdCheckpoint(t, classes, 1), g)
	if status, _ := postClassify(t, srv.Addr(), `{"nodes":[]}`); status != 400 {
		t.Fatal("empty nodes accepted")
	}
	if status, _ := postClassify(t, srv.Addr(), `not json`); status != 400 {
		t.Fatal("bad body accepted")
	}
	if status, _ := postClassify(t, srv.Addr(), `{"nodes":[99]}`); status != 400 {
		t.Fatal("out-of-range node accepted")
	}
	resp, err = http.Get("http://" + srv.Addr() + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET classify status %d want 405", resp.StatusCode)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy healthz status %d", resp.StatusCode)
	}
}

// TestHotSwapUnderLoad is the soak the acceptance criteria name: workers
// hammer the HTTP endpoint while checkpoints land on disk repeatedly and a
// Watcher hot-swaps the model. Every response must be a 200 whose class is
// correct for the model round it claims — which also proves post-swap
// responses reflect the new parameters. Run with -race.
func TestHotSwapUnderLoad(t *testing.T) {
	const (
		n       = 30
		classes = 3
		workers = 8
		rounds  = 6
	)
	g := testGraph(t, n, classes)
	s := New(Config{MaxBatch: 16, Linger: 200 * time.Microsecond, CacheSize: 512})
	defer s.Close()

	path := filepath.Join(t.TempDir(), "model.ckpt")
	write := fed.FileCheckpointer(path)
	if err := write(fedomdCheckpoint(t, classes, 0)); err != nil {
		t.Fatal(err)
	}
	var swapErrs atomic.Int64
	w := WatchCheckpoint(s, path, time.Millisecond, g, func(err error) {
		swapErrs.Add(1)
		t.Log("swap error:", err)
	})
	defer w.Stop()
	srv := startTestServer(t, s)

	// Wait for the initial model.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.ModelRound(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never loaded the initial checkpoint")
		}
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	var bad atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			node := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				node = (node*7 + 3) % n
				body := fmt.Sprintf(`{"nodes":[%d]}`, node)
				resp, err := client.Post("http://"+srv.Addr()+"/v1/classify", "application/json", strings.NewReader(body))
				if err != nil {
					bad.Add(1)
					t.Error("request failed:", err)
					return
				}
				var cr ClassifyResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				total.Add(1)
				if resp.StatusCode != 200 || err != nil {
					bad.Add(1)
					t.Errorf("non-200 under swap load: %d (%v)", resp.StatusCode, err)
					return
				}
				if want := expectedClass(node, classes, cr.ModelRound); cr.Results[0].Class != want {
					bad.Add(1)
					t.Errorf("round-%d response has class %d for node %d, want %d",
						cr.ModelRound, cr.Results[0].Class, node, want)
					return
				}
			}
		}(wkr)
	}

	// Land new checkpoints while the load runs.
	for r := 1; r <= rounds; r++ {
		time.Sleep(20 * time.Millisecond)
		if err := write(fedomdCheckpoint(t, classes, r)); err != nil {
			t.Fatal(err)
		}
	}
	// Let the last swap propagate, then verify it is being served.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if r, _ := s.ModelRound(); r == rounds {
			break
		}
		if time.Now().After(deadline) {
			r, _ := s.ModelRound()
			t.Fatalf("final checkpoint never swapped in (at round %d, want %d)", r, rounds)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d bad responses out of %d", bad.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("soak sent no requests")
	}
	if w.Swaps() < 2 {
		t.Fatalf("only %d swaps happened during the soak", w.Swaps())
	}
	if swapErrs.Load() != 0 {
		t.Fatalf("%d swap errors during soak", swapErrs.Load())
	}
	res, err := s.Classify(t.Context(), []int{1}, false)
	if err != nil || res.ModelRound != rounds {
		t.Fatalf("post-soak classify: round %d err %v", res.ModelRound, err)
	}
}

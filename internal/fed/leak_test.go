package fed

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
)

// TestAsyncRunLeavesNoWorker ends async runs while a straggler's job is
// still in flight — on a FailFast party error, on lost quorum, on a failed
// checkpoint write and at the last round — and checks that once Run returns
// every worker goroutine is gone. The straggler sleeps far longer than the
// retry window, so a worker left running past Run's return is caught.
func TestAsyncRunLeavesNoWorker(t *testing.T) {
	const slowFor = 300 * time.Millisecond
	mk := func() []Client {
		fast := newFakeClient("fast", 1, 0)
		slow := &slowFake{fakeClient: newFakeClient("slow", 1, 0), sleep: slowFor}
		return []Client{fast, slow}
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		cfg     Config
		clients func() []Client
		wantErr error
	}{
		{
			name: "failfast",
			cfg:  Config{Rounds: 3, Aggregation: AggAsync, BufferK: 2},
			clients: func() []Client {
				cs := mk()
				cs[0].(*fakeClient).trainErr = boom
				return cs
			},
			wantErr: boom,
		},
		{
			name:    "quorum abort",
			cfg:     Config{Rounds: 3, Aggregation: AggAsync, BufferK: 1, MinClients: 2, Policy: DropRound},
			clients: mk,
			wantErr: ErrQuorumLost,
		},
		{
			name: "checkpoint error",
			cfg: Config{Rounds: 3, Aggregation: AggAsync, BufferK: 1, CheckpointEvery: 1,
				CheckpointWriter: func(*Checkpoint) error { return boom }},
			clients: mk,
			wantErr: boom,
		},
		{
			name:    "last round",
			cfg:     Config{Rounds: 1, Aggregation: AggAsync, BufferK: 1},
			clients: mk,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(tc.cfg, tc.clients())
			if tc.wantErr == nil && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run error = %v, want %v", err, tc.wantErr)
			}
			deadline := time.Now().Add(50 * time.Millisecond)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Run, %d before:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// slowMeans is a party whose LocalMeans outlasts the run's ClientTimeout.
type slowMeans struct {
	*faultySite
	sleep time.Duration
}

func (s *slowMeans) LocalMeans() ([]*mat.Dense, int, error) {
	time.Sleep(s.sleep)
	return s.faultySite.LocalMeans()
}

// TestSyncRunLeavesNoWorker ends sync runs over loopback TCP with the q8
// codec inside a fanned-out phase — on a FailFast broadcast error, on lost
// quorum under DropRound, and on a ClientTimeout expiry while a party is
// still computing its means — and checks that once RunDistributed returns
// and the parties' serve loops end, no goroutine of the run is left.
func TestSyncRunLeavesNoWorker(t *testing.T) {
	q8 := codec.Options{Kind: codec.Quant, Bits: 8}
	for _, tc := range []struct {
		name    string
		cfg     Config
		party   func() Client
		wantErr error
	}{
		{
			name:  "failfast",
			cfg:   Config{Rounds: 3, Codec: q8},
			party: func() Client { return newFaultySite("b", "broadcast", 1) },
		},
		{
			name:    "quorum abort",
			cfg:     Config{Rounds: 3, Codec: q8, Policy: DropRound, MinClients: 2},
			party:   func() Client { return newFaultySite("b", "broadcast", 1) },
			wantErr: ErrQuorumLost,
		},
		{
			name:    "client timeout",
			cfg:     Config{Rounds: 3, Codec: q8, ClientTimeout: 50 * time.Millisecond},
			party:   func() Client { return &slowMeans{faultySite: newFaultySite("b", "", 1), sleep: 300 * time.Millisecond} },
			wantErr: ErrClientTimeout,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, c := range []Client{newFaultySite("a", "", 1), tc.party()} {
				wg.Add(1)
				go func(c Client) {
					defer wg.Done()
					// A party whose run aborted sees its link close; the
					// serve loop's error says so and is expected.
					_ = ServeClient(ln.Addr().String(), c)
				}(c)
			}
			_, err = RunDistributed(tc.cfg, ln, 2)
			ln.Close()
			wg.Wait()
			switch {
			case err == nil:
				t.Fatal("run did not fail")
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("Run error = %v, want %v", err, tc.wantErr)
			}
			deadline := time.Now().Add(500 * time.Millisecond)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, %d before:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

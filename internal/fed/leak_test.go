package fed

import (
	"errors"
	"runtime"
	"testing"
	"time"
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

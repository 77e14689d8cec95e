package fed

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// rendezvous tracks, per operation, how many calls are in flight at once.
// Each call waits up to wait for a partner of the same operation, so two
// parties driven concurrently are seen together and two driven one after
// the other are not.
type rendezvous struct {
	wait time.Duration

	mu       sync.Mutex
	inFlight map[string]int
	peak     map[string]int
	partner  map[string]chan struct{}
}

func newRendezvous(wait time.Duration) *rendezvous {
	return &rendezvous{wait: wait, inFlight: map[string]int{}, peak: map[string]int{}, partner: map[string]chan struct{}{}}
}

func (r *rendezvous) meet(op string) {
	r.mu.Lock()
	r.inFlight[op]++
	r.peak[op] = max(r.peak[op], r.inFlight[op])
	ch, waiting := r.partner[op]
	if waiting {
		close(ch) // release the call already waiting
		delete(r.partner, op)
	} else {
		ch = make(chan struct{})
		r.partner[op] = ch
	}
	r.mu.Unlock()
	if !waiting {
		select {
		case <-ch:
		case <-time.After(r.wait):
		}
	}
	r.mu.Lock()
	r.inFlight[op]--
	if r.partner[op] == ch {
		delete(r.partner, op)
	}
	r.mu.Unlock()
}

// meetingParty is a moment and aux party whose every coordinator-driven
// exchange call meets the rendezvous. SetParams is keyed by its ordinal, so
// the round's broadcast and the final scoring install count apart; the
// bootstrap Params call, which reads party 0 alone, skips the rendezvous.
type meetingParty struct {
	*faultySite
	r *rendezvous
}

func (m *meetingParty) SetParams(g *nn.Params) error {
	m.r.meet(fmt.Sprintf("set_params#%d", atomic.LoadInt32(&m.setCalls)+1))
	return m.faultySite.SetParams(g)
}

func (m *meetingParty) Params() *nn.Params {
	if atomic.LoadInt32(&m.setCalls) > 0 {
		m.r.meet("params")
	}
	return m.faultySite.Params()
}

func (m *meetingParty) LocalMeans() ([]*mat.Dense, int, error) {
	m.r.meet("local_means")
	return m.faultySite.LocalMeans()
}

func (m *meetingParty) CentralAroundGlobal(gm []*mat.Dense) ([][]*mat.Dense, int, error) {
	m.r.meet("central_around_global")
	return m.faultySite.CentralAroundGlobal(gm)
}

func (m *meetingParty) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	m.r.meet("set_global_stats")
	m.faultySite.SetGlobalStats(means, central)
}

func (m *meetingParty) UploadAux() *nn.Params {
	m.r.meet("upload_aux")
	return m.faultySite.UploadAux()
}

func (m *meetingParty) DownloadAux(g *nn.Params) error {
	m.r.meet("download_aux")
	return m.faultySite.DownloadAux(g)
}

// Every per-party phase of a sync round, the final scoring install
// included, drives its parties concurrently: two parties on two workers
// meet in each phase. Under Config.Sequential no phase has two calls in
// flight.
func TestRoundPhasesOverlapParties(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	phases := []string{"set_params#1", "local_means", "central_around_global", "set_global_stats",
		"upload_aux", "params", "download_aux", "set_params#2"}
	for _, tc := range []struct {
		sequential bool
		wait       time.Duration
		want       int
	}{
		{false, 500 * time.Millisecond, 2},
		// Serial calls never meet, so a short wait is enough to show it.
		{true, 20 * time.Millisecond, 1},
	} {
		t.Run(fmt.Sprintf("sequential=%t", tc.sequential), func(t *testing.T) {
			r := newRendezvous(tc.wait)
			clients := []Client{
				&meetingParty{faultySite: newFaultySite("a", "", 1), r: r},
				&meetingParty{faultySite: newFaultySite("b", "", 2), r: r},
			}
			if _, err := Run(Config{Rounds: 1, Sequential: tc.sequential}, clients); err != nil {
				t.Fatal(err)
			}
			for _, ph := range phases {
				if got := r.peak[ph]; got != tc.want {
					t.Errorf("%s: %d calls in flight at most, want %d", ph, got, tc.want)
				}
			}
		})
	}
}

// slowFaultySite delays its broadcast, training and upload so a lower slot
// fails later in wall time than a higher one.
type slowFaultySite struct {
	*faultySite
	delay time.Duration
}

func (s *slowFaultySite) SetParams(g *nn.Params) error {
	time.Sleep(s.delay)
	return s.faultySite.SetParams(g)
}

func (s *slowFaultySite) TrainLocal(round int) (float64, error) {
	time.Sleep(s.delay)
	return s.faultySite.TrainLocal(round)
}

func (s *slowFaultySite) Params() *nn.Params {
	time.Sleep(s.delay)
	return s.faultySite.Params()
}

// Under FailFast a fanned-out phase with two failing parties returns the
// lower slot's error in the serial loop's words, even when the higher slot
// fails first.
func TestFanOutFailFastReturnsLowestSlot(t *testing.T) {
	for _, tc := range []struct{ site, want string }{
		{"broadcast", "fed: broadcast to b: injected broadcast failure"},
		{"train", "fed: client b round 0: injected train failure"},
		{"upload", "fed: upload from b: non-finite values in upload"},
	} {
		for _, sequential := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sequential=%t", tc.site, sequential), func(t *testing.T) {
				clients := []Client{
					newFaultySite("a", "", 1),
					&slowFaultySite{faultySite: newFaultySite("b", tc.site, 1), delay: 20 * time.Millisecond},
					newFaultySite("c", tc.site, 1),
				}
				_, err := Run(Config{Rounds: 1, Sequential: sequential}, clients)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("error %v, want %q", err, tc.want)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("error joins several failures: %q", err)
				}
			})
		}
	}
}

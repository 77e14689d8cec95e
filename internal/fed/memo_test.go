package fed

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// widePair returns two distinct 1×n parameter sets.
func widePair(n int) (*nn.Params, *nn.Params) {
	mk := func(off float64) *nn.Params {
		m := mat.New(1, n)
		for j := 0; j < n; j++ {
			m.Set(0, j, off+float64(j)/float64(n))
		}
		p := nn.NewParams()
		p.Add("w", m)
		return p
	}
	return mk(0.25), mk(0.5)
}

// The memo hands out exactly the bytes a fresh per-party encoder would, and
// the Ref it returns carries the global's own checksum.
func TestBroadcastMemoMatchesFreshEncode(t *testing.T) {
	g0, g1 := widePair(64)
	m := newBroadcastMemo(nil)
	for _, ref := range []codec.Ref{{}, codec.NewRef(g0)} {
		blob, next, _, err := m.encode(g1, ref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.NewEncoder(codec.Options{Kind: codec.Delta}).EncodeParams(nil, g1, ref.Params())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("memo blob against %p differs from a fresh encode", ref.Params())
		}
		if next.Params() != g1 || next != codec.NewRef(g1) {
			t.Fatal("memo returned a Ref that is not the global's")
		}
		again, _, ns, err := m.encode(g1, ref)
		if err != nil || ns != 0 || &again[0] != &blob[0] {
			t.Fatalf("second broadcast against the same reference was re-encoded (ns=%d, err=%v)", ns, err)
		}
	}
}

// Concurrent broadcasts of two globals against two references from many
// goroutines: every caller gets the right bytes (run under -race).
func TestBroadcastMemoConcurrent(t *testing.T) {
	g0, g1 := widePair(256)
	refs := []codec.Ref{{}, codec.NewRef(g0), codec.NewRef(g1)}
	want := map[[2]int][]byte{}
	for gi, g := range []*nn.Params{g0, g1} {
		for ri, r := range refs {
			b, err := codec.NewEncoder(codec.Options{Kind: codec.Delta}).EncodeParams(nil, g, r.Params())
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{gi, ri}] = b
		}
	}
	m := newBroadcastMemo(nil)
	var wg sync.WaitGroup
	var bad atomic.Int32
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				gi, ri := (w+k)%2, (w*k)%3
				g := []*nn.Params{g0, g1}[gi]
				blob, _, _, err := m.encode(g, refs[ri])
				if err != nil || !bytes.Equal(blob, want[[2]int{gi, ri}]) {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d concurrent broadcasts got the wrong blob", bad.Load())
	}
}

// failSetAt fails its nth SetParams (1-based) with an application error.
type failSetAt struct {
	*fakeClient
	n, calls int
}

func (f *failSetAt) SetParams(g *nn.Params) error {
	f.calls++
	if f.calls == f.n {
		return errors.New("refusing this broadcast")
	}
	return f.fakeClient.SetParams(g)
}

// Over TCP the coordinator encodes each broadcast once per distinct
// reference its parties hold, not once per party: four parties that all
// hold the last global cost one encode per round. A party whose broadcast
// failed is re-synced absolutely, which is a second distinct reference in
// the next round.
func TestDistributedBroadcastEncodedOncePerReference(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(lockedWriter{&mu, &buf})
	tr := obs.NewTracer(jl) // coordinator only: parties trace nothing

	const rounds = 3
	locals := []Client{
		newWideFakeClient("a", 1, 0, 64),
		newWideFakeClient("b", 2, 1, 64),
		newWideFakeClient("c", 3, 2, 64),
		// d's second broadcast (round 1) fails, so in round 2 it holds no
		// reference while a, b and c hold round 1's global.
		&failSetAt{fakeClient: newWideFakeClient("d", 4, 3, 64), n: 2},
	}
	for i, c := range locals[:3] {
		c.(*fakeClient).trainVal = float64(i + 1)
	}
	cfg := Config{Rounds: rounds, Sequential: true, Tracer: tr, Policy: DropRound,
		Codec: codec.Options{Kind: codec.Quant, Bits: 8}}
	if _, err := startServer(t, cfg, locals); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	recs := decodeTrace(t, bytes.NewBuffer(append([]byte(nil), buf.Bytes()...)))
	mu.Unlock()

	encodes := 0
	for _, r := range recs {
		if r.Type == "span" && r.Name == obs.SpanEncode {
			encodes++
		}
	}
	// Round 0: nobody holds a reference (one absolute blob). Round 1: all
	// hold global 0 (one). Round 2: a, b and c hold global 1, d holds none
	// (two). The final broadcast: all hold global 2 (one). Encoding per
	// party would have cost 4 × (rounds + 1) = 16.
	if want := 5; encodes != want {
		t.Fatalf("coordinator encoded %d broadcasts, want %d", encodes, want)
	}
}

// The async engine over TCP with the delta codec: per-party workers
// broadcast different globals through the one shared memo at the same time
// (run under -race). The run completes and every party's final parameters
// equal the last global, which is what a lossless downlink promises.
func TestDistributedAsyncDeltaSharedMemo(t *testing.T) {
	var locals []Client
	for i := 0; i < 4; i++ {
		f := newWideFakeClient(string(rune('a'+i)), i+1, float64(i), 128)
		f.trainVal = float64(i + 1)
		locals = append(locals, &slowTrainer{fakeClient: f, delay: time.Duration(i) * time.Millisecond})
	}
	// MaxStaleness covers the whole run: with BufferK 1 the slowest party
	// can fall many rounds behind, and the FailFast default would abort the
	// run on that update (TestAsyncFoldEvictsStaleAndResetsEncoder pins
	// that behaviour; this test is about the shared memo).
	res, err := startServer(t, Config{Rounds: 12, Aggregation: AggAsync, BufferK: 1, MaxStaleness: 12,
		Codec: codec.Options{Kind: codec.Delta}}, locals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 {
		t.Fatalf("completed %d rounds, want 12", len(res.History))
	}
	for _, c := range locals {
		if got := c.(*slowTrainer).params.Get("w"); !got.Equal(res.FinalParams.Get("w")) {
			t.Fatalf("party %s does not hold the final global after the last broadcast", c.Name())
		}
	}
}

// A party whose reference was reset refuses a blob that carries the old
// reference's checksum, and after an absolute re-sync to a different global
// it refuses it again on the checksum itself; a blob against the reference
// it does hold still decodes.
func TestPartyRefusesBlobAgainstResetReference(t *testing.T) {
	coord, party := net.Pipe()
	defer coord.Close()
	local := newWideFakeClient("p", 1, 0, 32)
	done := make(chan error, 1)
	go func() { done <- ServeClientConnOpts(party, local, ServeOptions{}) }()
	enc, dec := gob.NewEncoder(coord), gob.NewDecoder(coord)
	var h hello
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	call := func(req rpcRequest) string {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp rpcResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp.Err
	}
	down := codec.NewEncoder(codec.Options{Kind: codec.Delta})
	blob := func(g *nn.Params, ref codec.Ref) []byte {
		t.Helper()
		b, err := down.EncodeRef(nil, g, ref)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	g0, g1 := widePair(32)
	g2 := g1.Clone()
	g2.Get("w").Set(0, 0, 9)
	negotiate := negotiateRequest(codec.Options{Kind: codec.Delta})

	if e := call(negotiate); e != "" {
		t.Fatal(e)
	}
	if e := call(rpcRequest{Op: opSetParams, Blob: blob(g0, codec.Ref{})}); e != "" {
		t.Fatalf("absolute broadcast refused: %s", e)
	}
	stale := blob(g2, codec.NewRef(g0)) // encoded against the reference about to be dropped
	if e := call(negotiate); e != "" {  // a renegotiation resets the party's reference
		t.Fatal(e)
	}
	if e := call(rpcRequest{Op: opSetParams, Blob: stale}); e == "" {
		t.Fatal("party with no reference accepted a delta blob")
	}
	if e := call(rpcRequest{Op: opSetParams, Blob: blob(g1, codec.Ref{})}); e != "" {
		t.Fatalf("absolute re-sync refused: %s", e)
	}
	if e := call(rpcRequest{Op: opSetParams, Blob: stale}); !strings.Contains(e, "checksum mismatch") {
		t.Fatalf("blob with the old reference's checksum: got error %q, want a checksum mismatch", e)
	}
	// The refusal dropped the party's reference too: re-sync, then a blob
	// against the reference it holds decodes.
	if e := call(rpcRequest{Op: opSetParams, Blob: blob(g1, codec.Ref{})}); e != "" {
		t.Fatalf("absolute re-sync refused: %s", e)
	}
	if e := call(rpcRequest{Op: opSetParams, Blob: blob(g2, codec.NewRef(g1))}); e != "" {
		t.Fatalf("delta against the held reference refused: %s", e)
	}
	if !local.params.Get("w").Equal(g2.Get("w")) {
		t.Fatal("party did not install the delta-decoded global")
	}
	if e := call(rpcRequest{Op: opShutdown}); e != "" {
		t.Fatal(e)
	}
	if err := <-done; err != nil {
		t.Fatalf("party serve loop: %v", err)
	}
}

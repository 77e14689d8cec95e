package codec

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// fuzzRefs are the references FuzzDecodeParams decodes every input against:
// none, the one-tensor set the golden wire-format blob names, and a
// model-shaped set the generated seeds are encoded against.
func fuzzRefs() (golden, model *nn.Params) {
	golden = paramsFrom([]string{"w"}, []*mat.Dense{mat.NewFromData(1, 3, []float64{1.0, -2.5, 0.75})})
	model = randParams(rand.New(rand.NewSource(31)), 1)
	return golden, model
}

// fuzzSeeds returns the seed corpus: the two TestGoldenWireFormat blobs, a
// q8 blob, a q8 top-k blob, and an XOR blob whose last body lost three bytes
// (with its length field patched, so the XOR decoder itself meets the cut).
func fuzzSeeds(t testing.TB) [][]byte {
	golden, model := fuzzRefs()
	w := goldenW()
	p := perturb(rand.New(rand.NewSource(32)), model, 0.05)
	encode := func(o Options, p, ref *nn.Params) []byte {
		blob, err := NewEncoder(o).EncodeParams(nil, p, ref)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	one := paramsFrom([]string{"w0"}, []*mat.Dense{p.Get("w0")})
	cut := encode(Options{Kind: Delta}, one, model)
	cut = cut[:len(cut)-3]
	body := binary.LittleEndian.Uint32(cut[blobHeaderLen:])
	binary.LittleEndian.PutUint32(cut[blobHeaderLen:], body-3)
	return [][]byte{
		encode(Options{Kind: Delta}, w, nil),
		encode(Options{Kind: Delta}, w, golden),
		encode(Options{Kind: Quant, Bits: 8}, p, model),
		encode(Options{Kind: Quant, Bits: 8, TopK: 0.25}, p, model),
		cut,
	}
}

// The seeds decode as intended before the fuzzer mutates them: the golden
// and lossy blobs succeed, and the cut XOR blob fails inside the XOR body
// rather than at the frame layer.
func TestFuzzSeedsReachTheirDecoders(t *testing.T) {
	golden, model := fuzzRefs()
	seeds := fuzzSeeds(t)
	for i, ref := range []*nn.Params{nil, golden, model, model} {
		dec, err := DecodeParams(seeds[i], ref)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		PutParams(dec)
	}
	if _, err := DecodeParams(seeds[4], model); err == nil || errText(err) != `codec: frame "w0": codec: xor body truncated at element 34` {
		t.Fatalf("cut seed: %v", err)
	}
}

// FuzzDecodeParams feeds arbitrary bytes to the blob decoder. It must never
// panic, and never allocate from a count it has not checked: the heap it
// takes is bounded by the blob's and the reference's sizes, whatever the
// headers claim.
func FuzzDecodeParams(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	golden, model := fuzzRefs()
	refs := []Ref{{}, NewRef(golden), NewRef(model)}
	var refBytes uint64
	for _, r := range refs[1:] {
		refBytes += uint64(r.params.Bytes())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range refs {
			if dec, err := decodeRef(blob, r); err == nil {
				PutParams(dec)
			}
		}
		runtime.ReadMemStats(&after)
		// Per decode: outputs and top-k values up to twice the reference,
		// raw values and per-frame bookkeeping a small multiple of the
		// blob; then a MiB for the runtime and the fuzz engine.
		limit := uint64(len(refs))*(32*uint64(len(blob))+2*refBytes) + 1<<20
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes (limit %d)", len(blob), got, limit)
		}
	})
}

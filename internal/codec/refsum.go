package codec

import (
	"math"
	"math/bits"

	"fedomd/internal/nn"
)

// RefSum fingerprints a reference parameter set for the v2 wire format:
// per tensor, its name and element count are folded into a running 64-bit
// state, which then seeds an XXH64 pass over the tensor's float64 bit
// patterns, read as little-endian words in four independent lanes. The
// result is forced nonzero (zero means "no reference" on the wire). Every
// blob carries the sum of the reference it was encoded against, and the
// decoder refuses it unless its own reference sums the same, so a blob can
// never silently be applied against the wrong base. The hash reads every
// word of the set, so it is taken once, when a set becomes a reference
// (NewRef), and travels with it as a Ref; it is not recomputed per blob.
//
// Each word passes through a multiply–rotate–multiply round before it
// meets the others, so flipping the same bit (the sign bit, say) in two
// words does not cancel, as it does in an FNV over whole words.
func RefSum(ref *nn.Params) uint64 {
	if ref == nil {
		return 0
	}
	h := uint64(ref.Len())
	names := ref.Names()
	for i, name := range names {
		data := ref.At(i).Data()
		h = mixWord(h, uint64(len(name)))
		for j := 0; j < len(name); j += 8 {
			var w uint64
			for k := j; k < len(name) && k < j+8; k++ {
				w |= uint64(name[k]) << (8 * (k - j))
			}
			h = mixWord(h, w)
		}
		h = mixWord(h, uint64(len(data)))
		h = xxh64Words(h, data)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// The XXH64 primes.
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

// xxRound is XXH64's per-word lane round.
func xxRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*xxPrime2, 31) * xxPrime1
}

// mixWord folds one 8-byte word into h, as XXH64 folds its tail words.
func mixWord(h, w uint64) uint64 {
	return bits.RotateLeft64(h^xxRound(0, w), 27)*xxPrime1 + xxPrime4
}

// xxh64Words is XXH64 with the given seed over the little-endian bytes of
// data's float64 bit patterns.
func xxh64Words(seed uint64, data []float64) uint64 {
	var h uint64
	d := data
	if len(d) >= 4 {
		v1, v2, v3, v4 := seed+xxPrime1+xxPrime2, seed+xxPrime2, seed, seed-xxPrime1
		for ; len(d) >= 4; d = d[4:] {
			v1 = xxRound(v1, math.Float64bits(d[0]))
			v2 = xxRound(v2, math.Float64bits(d[1]))
			v3 = xxRound(v3, math.Float64bits(d[2]))
			v4 = xxRound(v4, math.Float64bits(d[3]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^xxRound(0, v))*xxPrime1 + xxPrime4
		}
	} else {
		h = seed + xxPrime5
	}
	h += 8 * uint64(len(data))
	for _, v := range d {
		h = mixWord(h, math.Float64bits(v))
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

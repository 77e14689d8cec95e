package mat

import (
	"math"
	"math/rand"
)

// RandGaussian returns an r×c matrix with i.i.d N(mean, std²) entries drawn
// from rng.
func RandGaussian(rng *rand.Rand, r, c int, mean, std float64) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = mean + std*rng.NormFloat64()
	}
	return m
}

// RandUniform returns an r×c matrix with i.i.d U[lo, hi) entries.
func RandUniform(rng *rand.Rand, r, c int, lo, hi float64) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// Xavier returns an r×c matrix with Glorot-uniform entries
// U[-√(6/(r+c)), +√(6/(r+c))], the initialisation the paper cites [10].
func Xavier(rng *rand.Rand, r, c int) *Dense {
	bound := math.Sqrt(6 / float64(r+c))
	return RandUniform(rng, r, c, -bound, bound)
}

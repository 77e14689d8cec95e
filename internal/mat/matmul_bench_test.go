package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func randDense(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMatMulSeedIKJ(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randDense(n, n, rng)
			c := randDense(n, n, rng)
			out := New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matMulIKJ(out, a, c, 0, n)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOP/s")
		})
	}
}

func BenchmarkMatMulBlocked(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randDense(n, n, rng)
			c := randDense(n, n, rng)
			out := New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, a, c)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOP/s")
		})
	}
}

func BenchmarkMatMulT1Blocked(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewSource(1))
	a := randDense(n, n, rng)
	c := randDense(n, n, rng)
	out := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT1Into(out, a, c)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOP/s")
}

func BenchmarkMatMulT2Blocked(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewSource(1))
	a := randDense(n, n, rng)
	c := randDense(n, n, rng)
	out := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT2Into(out, a, c)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOP/s")
}

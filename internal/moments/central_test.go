package moments

import (
	"fmt"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
)

// composedCentral is the reference CentralAround replaced: one n×d centred
// copy and one n×d power per order (repeated multiplication from 1),
// reduced by MeanRows.
func composedCentral(z, mean *mat.Dense, maxOrder int) []*mat.Dense {
	centered := mat.SubRowVec(z, mean)
	var out []*mat.Dense
	for j := 2; j <= maxOrder; j++ {
		pow := mat.Apply(centered, func(x float64) float64 {
			r := 1.0
			for k := 0; k < j; k++ {
				r *= x
			}
			return r
		})
		out = append(out, mat.MeanRows(pow))
	}
	return out
}

func TestCentralAroundMatchesComposedReferenceExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][2]int{{0, 3}, {1, 5}, {7, 1}, {40, 6}, {33, 7}, {129, 64}}
	for _, sh := range shapes {
		for _, order := range []int{2, 5} {
			t.Run(fmt.Sprintf("%dx%d/order%d", sh[0], sh[1], order), func(t *testing.T) {
				z := mat.RandGaussian(rng, sh[0], sh[1], 0.3, 2) // negative entries: odd orders keep their sign
				mean := mat.RandGaussian(rng, 1, sh[1], 0, 1)
				got := CentralAround(z, mean, order)
				want := composedCentral(z, mean, order)
				if len(got) != order-1 || len(want) != order-1 {
					t.Fatalf("got %d moments, reference %d, want %d", len(got), len(want), order-1)
				}
				for k := range want {
					if r, c := got[k].Dims(); r != 1 || c != sh[1] {
						t.Fatalf("order %d is %dx%d, want 1x%d", k+2, r, c, sh[1])
					}
					for j, w := range want[k].Data() {
						if g := got[k].Data()[j]; g != w {
							t.Fatalf("order %d col %d: single pass %v, composed %v", k+2, j, g, w)
						}
					}
				}
			})
		}
	}
}

func TestCentralAroundBelowOrderTwoIsEmpty(t *testing.T) {
	z := mat.New(4, 3)
	mean := mat.New(1, 3)
	for _, order := range []int{1, 0, -2} {
		if got := CentralAround(z, mean, order); got == nil || len(got) != 0 {
			t.Fatalf("maxOrder %d: got %v, want an empty slice", order, got)
		}
	}
}

func TestCentralAroundRejectsForeignWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 1x4 mean against 3 columns must panic, as SubRowVec did")
		}
	}()
	CentralAround(mat.New(2, 3), mat.New(1, 4), 3)
}

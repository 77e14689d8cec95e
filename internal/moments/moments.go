// Package moments implements the central-moment machinery of FedOMD's
// Center Moment Discrepancy constraint (paper §4.4, eq. 10–11, Algorithm 1):
// per-layer feature means, j-th order central moments, the sample-weighted
// global aggregation the server performs, the scalar CMD distance, and a
// differentiable CMD loss node for the autodiff tape.
package moments

import (
	"fmt"
	"math"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

// DefaultMaxOrder is the truncation of the CMD series used by the paper
// (Algorithm 1 computes j ∈ {2,3,4,5}).
const DefaultMaxOrder = 5

// Stats holds the moment summary of one hidden representation: the sample
// count, the 1×d mean, and the central moments of orders 2..K (Central[0] is
// order 2). These are the only quantities a client uploads — the
// communication optimisation of §4.4.
type Stats struct {
	N       int
	Mean    *mat.Dense
	Central []*mat.Dense
}

// Bytes returns the wire size of the summary (Table 3's negligible-cost
// claim is checked against this).
func (s Stats) Bytes() int {
	total := s.Mean.Rows() * s.Mean.Cols()
	for _, c := range s.Central {
		total += c.Rows() * c.Cols()
	}
	return 8*total + 8 // + count
}

// Compute summarises z (rows = samples) with its own mean and central
// moments up to maxOrder — Algorithm 1 lines 4-7 on the client.
func Compute(z *mat.Dense, maxOrder int) (Stats, error) {
	if maxOrder < 2 {
		return Stats{}, fmt.Errorf("moments: maxOrder must be >= 2, got %d", maxOrder)
	}
	mean := mat.MeanRows(z)
	return Stats{N: z.Rows(), Mean: mean, Central: CentralAround(z, mean, maxOrder)}, nil
}

// CentralAround computes E((z − mean)^j) column-wise for j = 2..maxOrder
// around an externally supplied mean — Algorithm 1 line 13, where clients
// centre on the *global* mean received from the server. maxOrder < 2 yields
// no moments.
//
// One pass over z: each element's running product feeds one accumulator row
// per order, so no n×d temporary is built. The products multiply left to
// right and the rows add in order, which makes the result bit-identical to
// the composed MeanRows(PowElem(SubRowVec(z, mean), j)).
func CentralAround(z, mean *mat.Dense, maxOrder int) []*mat.Dense {
	if mean.Rows() != 1 || mean.Cols() != z.Cols() {
		panic(fmt.Sprintf("moments: CentralAround wants 1x%d mean, got %dx%d", z.Cols(), mean.Rows(), mean.Cols()))
	}
	if maxOrder < 2 {
		return []*mat.Dense{}
	}
	out := make([]*mat.Dense, maxOrder-1)
	acc := make([][]float64, len(out))
	for k := range out {
		out[k] = mat.New(1, z.Cols())
		acc[k] = out[k].Data()
	}
	mu := mean.Data()
	for i := 0; i < z.Rows(); i++ {
		for j, x := range z.Row(i) {
			c := x - mu[j]
			p := c
			for _, a := range acc {
				// The conversion rounds the product before it is added, so
				// no platform fuses the pair into one multiply-add.
				p = float64(p * c)
				a[j] += p
			}
		}
	}
	if z.Rows() > 0 {
		inv := 1 / float64(z.Rows())
		for _, a := range acc {
			for j := range a {
				a[j] *= inv
			}
		}
	}
	return out
}

// AggregateMeans computes the sample-weighted global mean of eq. 10:
// M = Σ n_i·M_i / Σ n_i. All means must share a shape.
func AggregateMeans(means []*mat.Dense, counts []int) (*mat.Dense, error) {
	if len(means) == 0 || len(means) != len(counts) {
		return nil, fmt.Errorf("moments: %d means with %d counts", len(means), len(counts))
	}
	out := mat.New(means[0].Rows(), means[0].Cols())
	var total float64
	for i, m := range means {
		if counts[i] < 0 {
			return nil, fmt.Errorf("moments: negative count %d", counts[i])
		}
		if m.Rows() != out.Rows() || m.Cols() != out.Cols() {
			return nil, fmt.Errorf("moments: mean %d shape mismatch", i)
		}
		out.AXPY(float64(counts[i]), m)
		total += float64(counts[i])
	}
	if total == 0 {
		return nil, fmt.Errorf("moments: all counts zero")
	}
	out.ScaleInPlace(1 / total)
	return out, nil
}

// AggregateCentral aggregates the per-client central-moment vectors (already
// centred on the global mean) with sample weights — the server side of
// Algorithm 1 line 25 applied to each order. clientMoms[i][k] is client i's
// moment of order k+2.
func AggregateCentral(clientMoms [][]*mat.Dense, counts []int) ([]*mat.Dense, error) {
	if len(clientMoms) == 0 || len(clientMoms) != len(counts) {
		return nil, fmt.Errorf("moments: %d clients with %d counts", len(clientMoms), len(counts))
	}
	orders := len(clientMoms[0])
	out := make([]*mat.Dense, orders)
	for k := 0; k < orders; k++ {
		means := make([]*mat.Dense, len(clientMoms))
		for i := range clientMoms {
			if len(clientMoms[i]) != orders {
				return nil, fmt.Errorf("moments: client %d has %d orders, want %d", i, len(clientMoms[i]), orders)
			}
			means[i] = clientMoms[i][k]
		}
		agg, err := AggregateMeans(means, counts)
		if err != nil {
			return nil, err
		}
		out[k] = agg
	}
	return out, nil
}

// CMD evaluates the scalar truncated CMD distance of eq. 11 between a local
// summary and the global summary, with activations bounded in [a, b]:
//
//	d = ‖M_local − M_global‖₂/(b−a) + Σ_{j=2..K} ‖C_j − S_j‖₂/(b−a)^j
func CMD(local Stats, globalMean *mat.Dense, globalCentral []*mat.Dense, a, b float64) (float64, error) {
	if b <= a {
		return 0, fmt.Errorf("moments: invalid activation range [%v, %v]", a, b)
	}
	if len(globalCentral) != len(local.Central) {
		return 0, fmt.Errorf("moments: order mismatch %d vs %d", len(local.Central), len(globalCentral))
	}
	width := b - a
	d := mat.FrobNorm(mat.Sub(local.Mean, globalMean)) / width
	for k, c := range local.Central {
		order := k + 2
		d += mat.FrobNorm(mat.Sub(c, globalCentral[k])) / math.Pow(width, float64(order))
	}
	return d, nil
}

// CMDLoss records the differentiable CMD distance on the tape for a hidden
// representation node z against fixed global statistics (they come from the
// previous exchange and are constants with respect to the current step).
// The result is a 1×1 loss node. Gradients flow through z's own mean and
// central moments, exactly the d_CMD term of eq. 12 / Algorithm 1 line 19.
func CMDLoss(tp *ad.Tape, z *ad.Node, globalMean *mat.Dense, globalCentral []*mat.Dense, a, b float64) (*ad.Node, error) {
	if b <= a {
		return nil, fmt.Errorf("moments: invalid activation range [%v, %v]", a, b)
	}
	width := b - a
	mean := tp.MeanRows(z)
	diff := tp.Sub(mean, tp.Const(globalMean))
	loss := tp.Scale(1/width, tp.L2Norm(diff))
	centered := tp.SubRowVec(z, mean)
	for k, global := range globalCentral {
		order := k + 2
		cj := tp.MeanRows(tp.PowElem(centered, order))
		term := tp.L2Norm(tp.Sub(cj, tp.Const(global)))
		loss = tp.Add(loss, tp.Scale(1/math.Pow(width, float64(order)), term))
	}
	return loss, nil
}

// CMDLossSquared is the smooth variant of CMDLoss: each ‖·‖₂ term is
// replaced by ‖·‖²₂, so the gradient magnitude is proportional to the
// remaining discrepancy and vanishes as the distributions converge. The
// plain eq. 11 norms have unit-magnitude gradients everywhere, which — under
// Adam's per-coordinate normalisation — keep perturbing the representation
// even after the moments match; the squared form avoids that while
// preserving the same minimiser. The design ablation bench compares both.
// Each term is additionally divided by the feature dimension d (mean rather
// than sum reduction, as torch.nn.MSELoss defaults to), so β is comparable
// across hidden widths.
func CMDLossSquared(tp *ad.Tape, z *ad.Node, globalMean *mat.Dense, globalCentral []*mat.Dense, a, b float64) (*ad.Node, error) {
	if b <= a {
		return nil, fmt.Errorf("moments: invalid activation range [%v, %v]", a, b)
	}
	width := b - a
	dim := float64(z.Value.Cols())
	if dim == 0 {
		dim = 1
	}
	mean := tp.MeanRows(z)
	diff := tp.Sub(mean, tp.Const(globalMean))
	loss := tp.Scale(1/(width*dim), tp.SumSquares(diff))
	centered := tp.SubRowVec(z, mean)
	for k, global := range globalCentral {
		order := k + 2
		cj := tp.MeanRows(tp.PowElem(centered, order))
		term := tp.SumSquares(tp.Sub(cj, tp.Const(global)))
		loss = tp.Add(loss, tp.Scale(1/(math.Pow(width, float64(order))*dim), term))
	}
	return loss, nil
}

// PooledReference computes, for testing and ablation, the exact statistics a
// server would obtain if all client samples were pooled centrally: the global
// mean and the central moments of the pooled data around it. The FL protocol
// approximates these without moving raw data.
func PooledReference(clients []*mat.Dense, maxOrder int) (*mat.Dense, []*mat.Dense, error) {
	if len(clients) == 0 {
		return nil, nil, fmt.Errorf("moments: no clients")
	}
	cols := clients[0].Cols()
	total := 0
	for _, c := range clients {
		if c.Cols() != cols {
			return nil, nil, fmt.Errorf("moments: feature width mismatch")
		}
		total += c.Rows()
	}
	pooled := mat.New(total, cols)
	row := 0
	for _, c := range clients {
		for i := 0; i < c.Rows(); i++ {
			copy(pooled.Row(row), c.Row(i))
			row++
		}
	}
	mean := mat.MeanRows(pooled)
	return mean, CentralAround(pooled, mean, maxOrder), nil
}

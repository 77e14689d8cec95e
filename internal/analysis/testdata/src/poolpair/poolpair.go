// Package poolpair exercises the poolpair analyzer: leaks on early-return,
// error and loop-exit paths, double puts, and the ownership transfers that
// legitimately silence the check.
package poolpair

import (
	"errors"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
)

// --- triggering cases ---

func leakOnEarlyReturn(fail bool) error {
	buf := mat.GetDense(4, 4)
	if fail {
		return errors.New("boom") // want `pooled buffer buf may leak`
	}
	mat.PutDense(buf)
	return nil
}

func leakAtScopeExit(cond bool) {
	if cond {
		buf := mat.GetDense(2, 2)
		buf.Zero()
	} // want `pooled buffer buf may leak`
}

func leakOnContinue(xs []int) {
	for _, x := range xs {
		buf := mat.GetDense(1, 1)
		if x < 0 {
			continue // want `pooled buffer buf may leak`
		}
		mat.PutDense(buf)
	}
}

func doublePutOnBranch(cond bool) {
	buf := mat.GetDense(2, 2)
	if cond {
		mat.PutDense(buf)
	}
	mat.PutDense(buf) // want `buf may already have been returned to the pool`
}

func overwriteWhileLive() {
	buf := mat.GetDense(1, 1)
	buf = mat.GetDense(2, 2) // want `buf is overwritten before being returned to the pool`
	mat.PutDense(buf)
}

func leakUnzeroedOnEarlyReturn(fail bool) error {
	buf := mat.GetDenseUnzeroed(4, 4)
	if fail {
		return errors.New("boom") // want `pooled buffer buf may leak`
	}
	mat.PutDense(buf)
	return nil
}

// branchAssignedNeverHandedOff takes its buffer inside a branch into a
// variable declared before it: the buffer belongs to the function body and
// leaks when the body ends.
func branchAssignedNeverHandedOff(cond bool) {
	var d *mat.Dense
	if cond {
		d = mat.GetDense(2, 2)
	} else {
		d = mat.GetDense(3, 3)
	}
	d.Zero()
} // want `pooled buffer d may leak`

// --- non-triggering cases ---

func pairedOnAllPaths(fail bool) error {
	buf := mat.GetDense(4, 4)
	if fail {
		mat.PutDense(buf)
		return errors.New("boom")
	}
	mat.PutDense(buf)
	return nil
}

func deferredPut() {
	buf := mat.GetDense(2, 2)
	defer mat.PutDense(buf)
	buf.Fill(1)
}

func deferredClosurePut(n int) float64 {
	v := mat.GetDense(n, 1)
	next := mat.GetDense(n, 1)
	defer func() {
		mat.PutDense(v)
		mat.PutDense(next)
	}()
	for i := 0; i < 3; i++ {
		v, next = next, v // swap, released through the closure
	}
	return v.At(0, 0)
}

type holder struct{ m *mat.Dense }

func transferByReturn() *mat.Dense {
	buf := mat.GetDense(3, 3)
	return buf
}

func transferByStruct() *holder {
	buf := mat.GetDense(1, 1)
	return &holder{m: buf}
}

func transferByAppend(sink [][]*mat.Dense) [][]*mat.Dense {
	buf := mat.GetDense(1, 1)
	return append(sink, []*mat.Dense{buf})
}

func transferIntoParams() *nn.Params {
	out := nn.NewParams()
	buf := mat.GetDense(2, 2)
	out.Add("w", buf) // owning sink: released by whoever releases the set
	return out
}

func panicIsNotALeak(bad bool) {
	buf := mat.GetDense(1, 1)
	if bad {
		panic("shape mismatch")
	}
	mat.PutDense(buf)
}

func putInBothBranches(cond bool) {
	buf := mat.GetDense(2, 2)
	if cond {
		mat.PutDense(buf)
	} else {
		mat.PutDense(buf)
	}
}

// branchAssignedThenHandedOff takes its buffer inside a branch into a
// variable declared before it; the buffer outlives the branch and is handed
// to the parameter set.
func branchAssignedThenHandedOff(cond bool) *nn.Params {
	out := nn.NewParams()
	var d *mat.Dense
	if cond {
		d = mat.GetDense(2, 2)
	} else {
		d = mat.GetDenseUnzeroed(2, 2)
	}
	out.Add("w", d)
	return out
}

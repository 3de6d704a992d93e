package fit

import "fmt"

// Accumulator is the incremental form of Quadratic (and of the Linear
// fallback): it maintains the normal-equation sums (Σ xᵏ for k ≤ 4 and
// Σ y·xᵏ for k ≤ 2) as samples arrive, so the per-epoch refit of a
// profile-database entry costs a few multiply-adds per appended sample
// plus one small dense solve — instead of re-walking the whole retained
// window — and performs zero steady-state allocations. The zero value
// is ready to use.
//
// Equivalence contract (enforced by FuzzFitIncremental): a Fit over a
// window whose samples were Appended in order returns the bit-identical
// Poly that the batch Polynomial returns for that window. This holds
// because Append performs exactly the per-sample operations of the batch
// loop, in the same order, on the same running sums. The one case where
// an O(1) update is provably unable to preserve bit-identity is window
// eviction: subtracting an evicted sample's contributions re-associates
// the floating-point additions and is only ULP-close, not identical
// ((a+b)-a ≠ b in general). Eviction therefore re-accumulates over the
// retained window via ReplaceWindow — O(window), still allocation-free,
// and the window is small by design (profiledb caps it at 64 samples).
type Accumulator struct {
	n int
	// pow[k] = Σ xᵏ and mom[k] = Σ y·xᵏ, accumulated in Polynomial's
	// order. A linear fit reads their prefixes.
	pow [5]float64
	mom [3]float64
	// Solve scratch: the normal matrix is rebuilt from pow into rowBuf
	// before every solve, and solveLinearInto swaps row headers while
	// pivoting.
	rows   [3][]float64
	rowBuf [9]float64
	rhs    [3]float64
	// Double-buffered coefficients: a failed solve may scribble on its
	// output before detecting a NaN, so each Fit solves into the buffer
	// the previous successful Fit did NOT return. The previously
	// returned Poly (e.g. a live profiledb curve kept in force after a
	// degenerate refit) is never corrupted by a failed attempt.
	coeffs [2][3]float64
	cur    int
}

// Append folds one sample into the running sums. It performs exactly
// the batch loop's per-sample updates (xᵏ by repeated multiplication,
// each sum's own order), which is what makes append-only windows
// bit-identical to batch fits. The float64 conversions round each power
// before it is summed, as the batch loop's xp is, so no platform may
// fuse the multiply into the add.
//
// ghlint:allocfree
func (a *Accumulator) Append(s Sample) {
	x2 := float64(s.X * s.X)
	x3 := float64(x2 * s.X)
	a.pow[0]++
	a.pow[1] += s.X
	a.pow[2] += x2
	a.pow[3] += x3
	a.pow[4] += float64(x3 * s.X)
	a.mom[0] += s.Y
	a.mom[1] += s.Y * s.X
	a.mom[2] += s.Y * x2
	a.n++
}

// ReplaceWindow resets the sums and re-accumulates them over window in
// order — the eviction path (see the type comment for why eviction
// cannot be O(1) without losing bit-identity). It is Append's
// arithmetic with the sums held in locals.
//
// ghlint:allocfree
func (a *Accumulator) ReplaceWindow(window []Sample) {
	var p0, p1, p2, p3, p4, m0, m1, m2 float64
	for _, s := range window {
		x2 := float64(s.X * s.X)
		x3 := float64(x2 * s.X)
		p0++
		p1 += s.X
		p2 += x2
		p3 += x3
		p4 += float64(x3 * s.X)
		m0 += s.Y
		m1 += s.Y * s.X
		m2 += s.Y * x2
	}
	a.pow = [5]float64{p0, p1, p2, p3, p4}
	a.mom = [3]float64{m0, m1, m2}
	a.n = len(window)
}

// Fit solves the normal equations for degree 1 or 2 from the running
// sums. The returned Poly's Coeffs alias an internal buffer that remains
// valid until the next successful Fit — callers that retain
// coefficients across fits must copy them (profiledb's
// Lookup/Save/ProjectionsInto all do).
//
// ghlint:allocfree
func (a *Accumulator) Fit(degree int) (Poly, error) {
	if degree < 1 || degree > 2 {
		return Poly{}, ErrBadDegree
	}
	m := degree + 1
	if a.n < m {
		return Poly{}, fmt.Errorf("%w: have %d, need %d", ErrTooFewSamples, a.n, m)
	}
	for i := 0; i < m; i++ {
		row := a.rowBuf[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			row[j] = a.pow[i+j]
		}
		a.rows[i] = row
	}
	rhs := a.rhs[:m]
	copy(rhs, a.mom[:m])
	next := a.coeffs[1-a.cur][:m]
	if err := solveLinearInto(a.rows[:m], rhs, next); err != nil {
		return Poly{}, err
	}
	a.cur = 1 - a.cur
	return Poly{Coeffs: next, N: a.n}, nil
}

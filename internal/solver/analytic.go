package solver

import (
	"errors"
	"fmt"
	"math"
)

// Analytic two-group solver. The paper's Eq. 8 objective with quadratic
// projections admits a closed-form KKT treatment once the active clamp
// region is fixed: within the box [idle, peakEff]² the objective is a sum
// of concave quadratics along the budget line, so the optimum is either
// the interior stationary point (equal marginal throughput per watt,
// f₁' = f₂') or one of a small set of boundary candidates (a group
// saturated, pinned at idle, or shut off entirely).
//
// The grid search in Optimize remains the production path — it handles
// three groups and arbitrary projection shapes — and the analytic solver
// is an independent oracle the tests cross-check it against.

// QuadraticModel is a group whose per-server projection is an explicit
// quadratic perf(p) = A + B·p + C·p² on [IdleW, PeakEffW], zero below
// IdleW and constant above PeakEffW (the paper's clamping semantics).
type QuadraticModel struct {
	Count    int
	IdleW    float64
	PeakEffW float64
	A, B, C  float64
}

// eval is the clamped per-server projection, floored at zero.
func (m QuadraticModel) eval(p float64) float64 {
	if p < m.IdleW {
		return 0
	}
	if p > m.PeakEffW {
		p = m.PeakEffW
	}
	v := m.A + m.B*p + m.C*p*p
	if v < 0 {
		return 0
	}
	return v
}

// validate rejects NaN bounds with negated comparisons, as the package's
// validate does, and non-finite coefficients, which would turn every
// candidate's throughput into NaN or ±Inf.
func (m QuadraticModel) validate(i int) error {
	if m.Count < 1 || !(m.IdleW > 0) || !(m.PeakEffW > m.IdleW) {
		return fmt.Errorf("%w: group %d: %+v", ErrBadModel, i, m)
	}
	for _, c := range []float64{m.A, m.B, m.C} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: group %d: non-finite coefficient in %+v", ErrBadModel, i, m)
		}
	}
	return nil
}

// ErrNotConcave is returned when a projection curves upward (C > 0): the
// stationary point would be a minimum and the KKT enumeration below is
// not exhaustive for such shapes.
var ErrNotConcave = errors.New("solver: projection not concave (C > 0)")

// OptimizeQuadratic2 maximizes count₁·f₁(p₁) + count₂·f₂(p₂) subject to
// count₁·p₁ + count₂·p₂ ≤ supplyW by enumerating the KKT candidates.
// It returns the same Result shape as Optimize (fractions of supply).
func OptimizeQuadratic2(m1, m2 QuadraticModel, supplyW float64) (Result, error) {
	if !(supplyW > 0) {
		return Result{}, fmt.Errorf("%w: %v", ErrBadSupply, supplyW)
	}
	if err := m1.validate(0); err != nil {
		return Result{}, err
	}
	if err := m2.validate(1); err != nil {
		return Result{}, err
	}
	if m1.C > 1e-12 || m2.C > 1e-12 {
		return Result{}, ErrNotConcave
	}
	c1, c2 := float64(m1.Count), float64(m2.Count)

	// Candidate per-server allocations (p1, p2); p < idle means "off"
	// and is normalized to 0.
	type cand struct{ p1, p2 float64 }
	var cands []cand
	add := func(p1, p2 float64) {
		if p1 < m1.IdleW {
			p1 = 0
		}
		if p1 > m1.PeakEffW {
			p1 = m1.PeakEffW
		}
		if p2 < m2.IdleW {
			p2 = 0
		}
		if p2 > m2.PeakEffW {
			p2 = m2.PeakEffW
		}
		if c1*p1+c2*p2 > supplyW+1e-9 {
			return
		}
		cands = append(cands, cand{p1, p2})
	}

	// Group 2 off, everything to group 1 (and vice versa).
	add(supplyW/c1, 0)
	add(0, supplyW/c2)
	// Both saturated (feasible only with abundant supply).
	add(m1.PeakEffW, m2.PeakEffW)
	// One group pinned at a box corner, the remainder to the other.
	add(m1.PeakEffW, (supplyW-c1*m1.PeakEffW)/c2)
	add((supplyW-c2*m2.PeakEffW)/c1, m2.PeakEffW)
	add(m1.IdleW, (supplyW-c1*m1.IdleW)/c2)
	add((supplyW-c2*m2.IdleW)/c1, m2.IdleW)
	// Interior stationary point: equal marginals on the active budget
	// line, B₁ + 2C₁p₁ = B₂ + 2C₂p₂ with c₁p₁ + c₂p₂ = supply.
	// Substituting p₂ = (S − c₁p₁)/c₂:
	//   B₁ + 2C₁p₁ = B₂ + 2C₂(S − c₁p₁)/c₂
	//   p₁(2C₁ + 2C₂c₁/c₂) = B₂ − B₁ + 2C₂S/c₂
	den := 2*m1.C + 2*m2.C*c1/c2
	if math.Abs(den) > 1e-15 {
		p1 := (m2.B - m1.B + 2*m2.C*supplyW/c2) / den
		p2 := (supplyW - c1*p1) / c2
		if p1 >= m1.IdleW && p1 <= m1.PeakEffW && p2 >= m2.IdleW && p2 <= m2.PeakEffW {
			add(p1, p2)
		}
	}

	best := Result{Fractions: []float64{0, 0}, PredictedPerf: math.Inf(-1)}
	for _, c := range cands {
		perf := c1*m1.eval(c.p1) + c2*m2.eval(c.p2)
		if perf > best.PredictedPerf {
			best.PredictedPerf = perf
			best.Fractions[0] = c1 * c.p1 / supplyW
			best.Fractions[1] = c2 * c.p2 / supplyW
		}
		best.Evaluations++
	}
	if math.IsInf(best.PredictedPerf, -1) {
		// Supply too small to run anything: allocate nothing.
		best.PredictedPerf = 0
	}
	return best, nil
}

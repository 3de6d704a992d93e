// Package solver implements the GreenHetero problem solver (paper
// §IV-B.3): given per-group performance projections and a predicted power
// supply, find the power allocation ratio (PAR) vector that maximizes
// aggregate rack throughput (Eq. 8).
//
// The objective is a sum of clamped concave projections — but the clamp
// to zero below each server's idle power makes it non-concave (a server
// allocated less than idle contributes nothing, so it can be better to
// shut one group out entirely). A closed-form KKT solution is therefore
// unsafe. The solver instead searches the PAR simplex on a configurable
// grid (default 1 %, versus the Manual policy's 10 %) and then refines
// the best cell by coordinate descent with geometrically shrinking steps,
// which converges inside the locally-concave active cell.
//
// Within a group, power is split evenly across that group's servers (the
// paper distributes the same amount to servers of the same type). Any
// allocation a group cannot consume (beyond its effective peak) is
// trimmed and left unallocated — the scheduler routes it to the battery
// (the paper's "extra ratio (1−η−γ) … charged into batteries").
package solver

import (
	"errors"
	"fmt"
)

// GroupModel is the solver's view of one homogeneous server group.
type GroupModel struct {
	// Count is the number of identical servers in the group.
	Count int
	// IdleW is each server's idle power: allocations below it yield
	// zero performance.
	IdleW float64
	// PeakEffW is each server's effective peak for the current
	// workload: allocations above it are wasted.
	PeakEffW float64
	// Perf projects one server's throughput from its allocated power.
	// The solver applies Eq. 8's clamp itself: a server below IdleW
	// contributes zero and one above PeakEffW is evaluated at PeakEffW,
	// so Perf is only called on [IdleW, PeakEffW] (or on NaN, when an
	// infinite supply meets a zero fraction) and what it returns outside
	// that band is never read. It must be a deterministic function of
	// its argument: Warm evaluates each group once per distinct
	// per-server power inside the band and once at PeakEffW, reusing one
	// call's result for every simplex point with that argument. The
	// allocfree annotation makes the field a verified contract: the
	// solver's hot loops call Perf on every solve, so every binding is
	// statically checked to be allocation-free.
	//
	// ghlint:allocfree
	Perf func(perServerW float64) float64
}

// Result is the optimized allocation.
type Result struct {
	// Fractions is the PAR vector: Fractions[i] of the supply goes to
	// group i. Sum ≤ 1; the remainder is unallocated (battery).
	Fractions []float64
	// PredictedPerf is the projected aggregate throughput.
	PredictedPerf float64
	// Evaluations counts objective evaluations (for the ablation bench).
	Evaluations int
}

var (
	// ErrNoGroups is returned for an empty model list.
	ErrNoGroups = errors.New("solver: no groups")
	// ErrTooManyGroups mirrors the paper's ≤3 configurations per rack.
	ErrTooManyGroups = errors.New("solver: more than 3 groups")
	// ErrBadModel is returned for invalid group models.
	ErrBadModel = errors.New("solver: bad group model")
	// ErrBadSupply is returned for a non-positive or NaN supply.
	ErrBadSupply = errors.New("solver: supply must be positive")
)

// Options tune the search.
type Options struct {
	// GridStep is the coarse simplex granularity as a fraction of
	// supply (default 0.01, i.e. 1 %). A step outside (0, 0.5], NaN
	// included, selects the default.
	GridStep float64
	// RefinePasses is the number of shrinking coordinate-descent passes
	// (default 3).
	RefinePasses int
}

// ghlint:allocfree
func (o Options) withDefaults() Options {
	if !(o.GridStep > 0 && o.GridStep <= 0.5) {
		o.GridStep = 0.01
	}
	if o.RefinePasses < 0 {
		o.RefinePasses = 0
	} else if o.RefinePasses == 0 {
		o.RefinePasses = 3
	}
	return o
}

// validate rejects malformed solver inputs; shared by Optimize and
// Warm.Optimize so both paths report identical errors.
//
// ghlint:allocfree
func validate(models []GroupModel, supplyW float64) error {
	if len(models) == 0 {
		return ErrNoGroups
	}
	if len(models) > 3 {
		return fmt.Errorf("%w: %d", ErrTooManyGroups, len(models))
	}
	// Negated comparisons reject NaN, which every comparison fails; the
	// band search of Warm needs ordered numbers. An infinite IdleW fails
	// the second test, as no PeakEffW exceeds it.
	if !(supplyW > 0) {
		return fmt.Errorf("%w: %v", ErrBadSupply, supplyW)
	}
	for i, m := range models {
		if m.Count < 1 || !(m.IdleW > 0) || !(m.PeakEffW > m.IdleW) || m.Perf == nil {
			return fmt.Errorf("%w: group %d: %+v", ErrBadModel, i, m)
		}
	}
	return nil
}

// Optimize finds the PAR vector maximizing projected throughput.
func Optimize(models []GroupModel, supplyW float64, opts Options) (Result, error) {
	if err := validate(models, supplyW); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()

	s := search{models: models, supplyW: supplyW}
	best := s.gridSearch(o.GridStep)
	best = s.refine(best, o.GridStep, o.RefinePasses)
	fracs := s.trim(best.fracs)
	return Result{
		Fractions:     fracs,
		PredictedPerf: best.perf,
		Evaluations:   s.evals,
	}, nil
}

// candidate is one evaluated point on the simplex.
type candidate struct {
	fracs []float64
	perf  float64
}

type search struct {
	models  []GroupModel
	supplyW float64
	evals   int
}

// objective projects aggregate throughput for a PAR vector.
//
// ghlint:allocfree
// ghlint:units fracs=frac
func (s *search) objective(fracs []float64) float64 {
	s.evals++
	var total float64
	for i := range s.models {
		m := &s.models[i]
		perServer := fracs[i] * s.supplyW / float64(m.Count)
		total += float64(m.Count) * clampedPerf(m, perServer)
	}
	return total
}

// clampedPerf is one server's throughput at perServer watts under
// Eq. 8's clamp: zero below idle, flat from the effective peak on.
//
// ghlint:allocfree
func clampedPerf(m *GroupModel, perServer float64) float64 {
	if perServer < m.IdleW {
		return 0
	}
	if m.PeakEffW < perServer {
		perServer = m.PeakEffW
	}
	return m.Perf(perServer)
}

// gridSearch scans the simplex at the given step.
//
// ghlint:units step=frac
func (s *search) gridSearch(step float64) candidate {
	n := len(s.models)
	steps := int(1/step + 0.5)
	best := candidate{fracs: make([]float64, n), perf: -1}
	tryPoint := func(fracs []float64) {
		if p := s.objective(fracs); p > best.perf {
			best.perf = p
			copy(best.fracs, fracs)
		}
	}
	switch n {
	case 1:
		for i := 0; i <= steps; i++ {
			tryPoint([]float64{float64(i) * step})
		}
	case 2:
		fr := make([]float64, 2)
		for i := 0; i <= steps; i++ {
			fr[0] = float64(i) * step
			fr[1] = 1 - fr[0]
			tryPoint(fr)
		}
	case 3:
		fr := make([]float64, 3)
		for i := 0; i <= steps; i++ {
			for j := 0; i+j <= steps; j++ {
				fr[0] = float64(i) * step
				fr[1] = float64(j) * step
				fr[2] = 1 - fr[0] - fr[1]
				if fr[2] < 0 {
					fr[2] = 0
				}
				tryPoint(fr)
			}
		}
	}
	return best
}

// refine runs shrinking coordinate-descent passes around c. Each pass
// perturbs one coordinate pair (i gains what j loses, keeping the sum
// constant) by ±step, halving the step each pass.
//
// ghlint:units step=frac
func (s *search) refine(c candidate, step float64, passes int) candidate {
	n := len(s.models)
	if n == 1 {
		return c
	}
	fr := append([]float64(nil), c.fracs...)
	for pass := 0; pass < passes; pass++ {
		step /= 2
		improved := true
		for iter := 0; improved && iter < 20; iter++ {
			improved = false
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					d := step
					if fr[j] < d {
						d = fr[j]
					}
					if d <= 0 || fr[i]+d > 1 {
						continue
					}
					fr[i] += d
					fr[j] -= d
					if p := s.objective(fr); p > c.perf {
						c.perf = p
						copy(c.fracs, fr)
						improved = true
					} else {
						fr[i] -= d
						fr[j] += d
					}
				}
			}
		}
		copy(fr, c.fracs)
	}
	return c
}

// trim cuts each group's fraction back to what it can actually consume
// (Count × PeakEffW), freeing surplus for the battery, and zeroes
// fractions that leave every server below idle (pure waste).
// ghlint:units fracs=frac result=frac
func (s *search) trim(fracs []float64) []float64 {
	out := append([]float64(nil), fracs...)
	for i, m := range s.models {
		maxUseful := float64(m.Count) * m.PeakEffW / s.supplyW
		if out[i] > maxUseful {
			out[i] = maxUseful
		}
		perServer := out[i] * s.supplyW / float64(m.Count)
		if perServer < m.IdleW {
			out[i] = 0
		}
	}
	return out
}

// UniformFractions returns the heterogeneity-oblivious baseline PAR: the
// supply split evenly per server, so each group receives a share
// proportional to its server count (Table III "Uniform").
//
// ghlint:units result0=frac
func UniformFractions(counts []int) ([]float64, error) {
	if len(counts) == 0 {
		return nil, ErrNoGroups
	}
	var total int
	for i, c := range counts {
		if c < 1 {
			return nil, fmt.Errorf("%w: group %d count %d", ErrBadModel, i, c)
		}
		total += c
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out, nil
}

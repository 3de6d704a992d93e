// Package policy implements the five power-allocation policies compared
// in the paper's evaluation (Table III):
//
//	Uniform       — heterogeneity-oblivious even split per server
//	Manual        — tries every allocation at 10 % granularity on the
//	                live system and keeps the best
//	GreenHetero-p — greedy by energy-efficiency ordering from the database
//	GreenHetero-a — database-driven solver without runtime updates
//	GreenHetero   — database-driven solver with adaptive updates
//
// GreenHetero-a and GreenHetero share the same allocation logic; what
// separates them is whether the simulator feeds runtime samples back into
// the database (UpdatesDB), i.e. Algorithm 1 lines 8–10.
package policy

import (
	"errors"
	"fmt"
	"sort"

	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/solver"
)

// Context carries everything a policy may consult for one decision.
type Context struct {
	// Groups are the rack's server groups (sorted, from server.Rack).
	Groups []server.Group
	// SupplyW is the epoch's power supply to split.
	SupplyW float64
	// Entries holds each group's performance-power database projection
	// for its workload, in group order (profiledb.DB.ProjectionsInto;
	// no sample windows). The GreenHetero family reads it; Uniform and
	// Manual ignore it. The caller owns the slice and may refill it in
	// place between decisions.
	Entries []profiledb.Entry
	// TryAllocation evaluates a candidate PAR vector on the live system
	// and returns its measured aggregate throughput. Only the Manual
	// policy uses it — that is exactly how the paper's Manual baseline
	// works (static trial of every 10 % split).
	TryAllocation func(fractions []float64) (float64, error)
	// Scratch, when non-nil, lets the database-driven policies reuse
	// working memory (solver models, the warm solver buffers) across
	// epochs instead of reallocating per decision. Results
	// are bit-identical with or without it. A Scratch must not be shared
	// across concurrent allocations; the controller owns one per run.
	Scratch *Scratch
}

// Scratch is reusable working memory for the per-epoch allocation hot
// path. Its lifetime is one controller (one simulated run): the embedded
// warm solver holds search buffers that each solve overwrites, and its
// last 3-group grid pick, which the next solve tries first. The pick
// changes how much of the grid a solve skips, never its result, so
// reuse across epochs — or even across different racks — never changes
// a result.
type Scratch struct {
	warm   solver.Warm
	models []solver.GroupModel
	// bound is the backing array the models' Perf methods are bound to.
	bound *profiledb.Entry
}

// NewScratch returns an empty Scratch ready for Context use.
func NewScratch() *Scratch { return &Scratch{} }

// bind returns the scratch models with each Perf bound to its
// projection entry. The bound method values read the entries through
// their pointers, so the caller refreshes the entry fields in place
// each epoch; the models are rebuilt and rebound only when the entries'
// backing array changes, so a steady epoch allocates nothing here.
//
// ghlint:allocfree
func (sc *Scratch) bind(entries []profiledb.Entry) []solver.GroupModel {
	if sc.bound != &entries[0] {
		sc.bound = &entries[0]
		sc.models = nil
	}
	if len(sc.models) != len(entries) {
		sc.models = make([]solver.GroupModel, len(entries))
		for i := range sc.models {
			sc.models[i].Perf = entries[i].Predict
		}
	}
	return sc.models
}

// Policy decides a PAR vector for one epoch.
type Policy interface {
	// Name is the Table III policy name.
	Name() string
	// UpdatesDB reports whether runtime feedback should refresh the
	// database when this policy runs.
	UpdatesDB() bool
	// Allocate returns the PAR vector (one fraction per group, sum ≤ 1).
	//
	// ghlint:units result0=frac
	Allocate(ctx Context) ([]float64, error)
}

var (
	// ErrNoTryAllocation is returned when Manual runs without a live
	// trial callback.
	ErrNoTryAllocation = errors.New("policy: manual policy needs a TryAllocation callback")
	// ErrBadContext is returned for contexts missing required fields.
	ErrBadContext = errors.New("policy: bad context")
)

// Uniform is the heterogeneity-oblivious baseline.
type Uniform struct{}

var _ Policy = Uniform{}

// Name implements Policy.
func (Uniform) Name() string { return "Uniform" }

// UpdatesDB implements Policy.
func (Uniform) UpdatesDB() bool { return false }

// Allocate splits the supply evenly per server.
func (Uniform) Allocate(ctx Context) ([]float64, error) {
	counts := make([]int, len(ctx.Groups))
	for i, g := range ctx.Groups {
		counts[i] = g.Count
	}
	return solver.UniformFractions(counts)
}

// Manual statically tries all allocations at 10 % granularity. "Static"
// is the operative word: the trial sweep builds a fixed lookup table —
// one winning ratio per coarse supply level — and replays it for the rest
// of the run. The 10 % grid and the coarse supply bucketing are why the
// paper calls Manual's PAR accuracy "very low" under time-varying supply
// (§V-B.2), even though its trials run on the live system.
type Manual struct {
	table map[int][]float64
}

// manualBucketW is the supply quantization of Manual's lookup table.
const manualBucketW = 100.0

var _ Policy = (*Manual)(nil)

// Name implements Policy.
func (*Manual) Name() string { return "Manual" }

// UpdatesDB implements Policy.
func (*Manual) UpdatesDB() bool { return false }

// Allocate enumerates the 10 % simplex grid via live trials the first
// time each supply level is seen, then replays the table entry.
func (m *Manual) Allocate(ctx Context) ([]float64, error) {
	if len(ctx.Groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrBadContext)
	}
	bucket := int(ctx.SupplyW/manualBucketW + 0.5)
	if cached, ok := m.table[bucket]; ok {
		if len(cached) != len(ctx.Groups) {
			return nil, fmt.Errorf("%w: cached ratio for %d groups, rack has %d", ErrBadContext, len(cached), len(ctx.Groups))
		}
		return append([]float64(nil), cached...), nil
	}
	if ctx.TryAllocation == nil {
		return nil, ErrNoTryAllocation
	}
	const step = 0.10
	var best []float64
	bestPerf := -1.0
	try := func(fracs []float64) error {
		perf, err := ctx.TryAllocation(fracs)
		if err != nil {
			return err
		}
		if perf > bestPerf {
			bestPerf = perf
			best = append(best[:0:0], fracs...)
		}
		return nil
	}
	switch len(ctx.Groups) {
	case 1:
		if err := try([]float64{1}); err != nil {
			return nil, err
		}
	case 2:
		for i := 0; i <= 10; i++ {
			f := float64(i) * step
			if err := try([]float64{f, 1 - f}); err != nil {
				return nil, err
			}
		}
	case 3:
		for i := 0; i <= 10; i++ {
			for j := 0; i+j <= 10; j++ {
				f0, f1 := float64(i)*step, float64(j)*step
				if err := try([]float64{f0, f1, 1 - f0 - f1}); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("%w: %d groups", ErrBadContext, len(ctx.Groups))
	}
	if m.table == nil {
		m.table = make(map[int][]float64)
	}
	m.table[bucket] = append([]float64(nil), best...)
	return best, nil
}

// Prioritized is GreenHetero-p: allocate by descending energy efficiency.
type Prioritized struct{}

var _ Policy = Prioritized{}

// Name implements Policy.
func (Prioritized) Name() string { return "GreenHetero-p" }

// UpdatesDB implements Policy.
func (Prioritized) UpdatesDB() bool { return false }

// Allocate gives each group, in descending projected throughput-per-watt
// order, its full demand until the supply runs out.
func (Prioritized) Allocate(ctx Context) ([]float64, error) {
	entries, err := ctx.entries()
	if err != nil {
		return nil, err
	}
	type ranked struct {
		idx int
		eff float64
	}
	order := make([]ranked, len(ctx.Groups))
	for i := range ctx.Groups {
		order[i] = ranked{idx: i, eff: entries[i].EnergyEfficiency()}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].eff > order[b].eff })

	fracs := make([]float64, len(ctx.Groups))
	remaining := ctx.SupplyW
	for _, r := range order {
		if remaining <= 0 {
			break
		}
		g := ctx.Groups[r.idx]
		demand := float64(g.Count) * entries[r.idx].PeakEffW
		grant := demand
		if grant > remaining {
			grant = remaining
		}
		fracs[r.idx] = grant / ctx.SupplyW
		remaining -= grant
	}
	return fracs, nil
}

// Solver is the GreenHetero / GreenHetero-a allocator: the database-driven
// PAR optimizer of §IV-B.3.
type Solver struct {
	// Adaptive selects between GreenHetero (true: runtime database
	// updates) and GreenHetero-a (false).
	Adaptive bool
	// Options tunes the underlying search; zero value uses defaults.
	Options solver.Options
}

var _ Policy = Solver{}

// Name implements Policy.
func (s Solver) Name() string {
	if s.Adaptive {
		return "GreenHetero"
	}
	return "GreenHetero-a"
}

// UpdatesDB implements Policy.
func (s Solver) UpdatesDB() bool { return s.Adaptive }

// Allocate runs the PAR optimizer over the Context's projection entries
// through the Context Scratch's warm solver (table-accelerated and
// pruned, bit-identical to the reference solver.Optimize), reusing its
// model slice. Without a Scratch it solves through a fresh one, so
// every call takes the same solve path.
//
// The annotation covers the Scratch path — the per-epoch hot path. The
// fresh Scratch hangs off an `== nil` guard, which the analyzer treats
// as a cold lazy-init path, matching reality: a caller without a
// Scratch has opted out of the zero-alloc contract.
//
// ghlint:allocfree
func (s Solver) Allocate(ctx Context) ([]float64, error) {
	if ctx.Scratch == nil {
		ctx.Scratch = NewScratch()
	}
	entries, err := ctx.entries()
	if err != nil {
		return nil, err
	}
	sc := ctx.Scratch
	models := sc.bind(entries)
	for i := range ctx.Groups {
		e := &entries[i]
		models[i].Count = ctx.Groups[i].Count
		models[i].IdleW = e.IdleW
		models[i].PeakEffW = e.PeakEffW
	}
	res, err := sc.warm.Optimize(models, ctx.SupplyW, s.Options)
	if err != nil {
		return nil, fmt.Errorf("policy %s: %w", s.Name(), err)
	}
	return res.Fractions, nil
}

// entries returns the Context's projection entries after checking that
// there is one per group.
//
// ghlint:allocfree
func (c Context) entries() ([]profiledb.Entry, error) {
	if len(c.Groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrBadContext)
	}
	if len(c.Entries) != len(c.Groups) {
		return nil, fmt.Errorf("%w: %d projection entries for %d groups", ErrBadContext, len(c.Entries), len(c.Groups))
	}
	return c.Entries, nil
}

// All returns the five Table III policies in presentation order.
func All() []Policy {
	return []Policy{
		Uniform{},
		&Manual{},
		Prioritized{},
		Solver{Adaptive: false},
		Solver{Adaptive: true},
	}
}

// ByName resolves a Table III policy name.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

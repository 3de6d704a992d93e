package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"greenhetero/internal/server"
	"greenhetero/internal/workload"
)

// resultsBitEqual asserts two solver results match bit for bit —
// fractions, predicted perf, and evaluation counts alike (the ablation
// tables print Evaluations, so even that must not drift).
func resultsBitEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Evaluations != want.Evaluations {
		t.Fatalf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
	if math.Float64bits(got.PredictedPerf) != math.Float64bits(want.PredictedPerf) {
		t.Fatalf("%s: perf %v (%#x), want %v (%#x)", label,
			got.PredictedPerf, math.Float64bits(got.PredictedPerf),
			want.PredictedPerf, math.Float64bits(want.PredictedPerf))
	}
	if len(got.Fractions) != len(want.Fractions) {
		t.Fatalf("%s: %d fractions, want %d", label, len(got.Fractions), len(want.Fractions))
	}
	for i := range got.Fractions {
		if math.Float64bits(got.Fractions[i]) != math.Float64bits(want.Fractions[i]) {
			t.Fatalf("%s: fraction %d = %v (%#x), want %v (%#x)", label, i,
				got.Fractions[i], math.Float64bits(got.Fractions[i]),
				want.Fractions[i], math.Float64bits(want.Fractions[i]))
		}
	}
}

// curveModel builds a GroupModel whose Perf is the profiledb-style
// clamped polynomial of coeffs.
func curveModel(count int, idleW, peakEffW float64, coeffs []float64) GroupModel {
	perf := func(p float64) float64 {
		if p < idleW {
			return 0
		}
		if p > peakEffW {
			p = peakEffW
		}
		var v float64
		for i := len(coeffs) - 1; i >= 0; i-- {
			v = v*p + coeffs[i]
		}
		if v < 0 {
			return 0
		}
		return v
	}
	return GroupModel{Count: count, IdleW: idleW, PeakEffW: peakEffW, Perf: perf}
}

// rawModel is curveModel without the clamp: its polynomial is read at
// every power, so only the solver's clamp applies Eq. 8.
func rawModel(count int, idleW, peakEffW float64, coeffs []float64) GroupModel {
	perf := func(p float64) float64 {
		var v float64
		for i := len(coeffs) - 1; i >= 0; i-- {
			v = v*p + coeffs[i]
		}
		return v
	}
	return GroupModel{Count: count, IdleW: idleW, PeakEffW: peakEffW, Perf: perf}
}

// plateauModel quantizes m's Perf down to multiples of q, so that many
// grid points share a total and only first-strict-improvement decides
// between them.
func plateauModel(m GroupModel, q float64) GroupModel {
	inner := m.Perf
	m.Perf = func(p float64) float64 { return math.Floor(inner(p)/q) * q }
	return m
}

// bandModel makes m's Perf return v on per-server powers in [lo, hi)
// and leaves it unchanged elsewhere.
func bandModel(m GroupModel, lo, hi, v float64) GroupModel {
	inner := m.Perf
	m.Perf = func(p float64) float64 {
		if p >= lo && p < hi {
			return v
		}
		return inner(p)
	}
	return m
}

// TestWarmMatchesOptimizeFixtures replays the package's standing
// fixtures (the paper's case study, trim, starvation, and three-group
// scenarios) through a shared Warm across varied options, asserting
// bit-identity with the cold reference solve every time.
func TestWarmMatchesOptimizeFixtures(t *testing.T) {
	fixtures := []struct {
		name   string
		models []GroupModel
		supply float64
	}{
		{"case-study", []GroupModel{
			truthModel(t, server.XeonE52620, workload.SPECjbb, 1),
			truthModel(t, server.CoreI54460, workload.SPECjbb, 1),
		}, 220},
		{"single-group", []GroupModel{
			truthModel(t, server.XeonE52620, workload.SPECjbb, 4),
		}, 500},
		{"three-groups", []GroupModel{
			truthModel(t, server.XeonE52620, workload.SPECjbb, 2),
			truthModel(t, server.XeonE52603, workload.SPECjbb, 2),
			truthModel(t, server.CoreI54460, workload.SPECjbb, 2),
		}, 600},
		{"surplus", []GroupModel{
			truthModel(t, server.CoreI54460, workload.SPECjbb, 1),
			truthModel(t, server.XeonE52620, workload.SPECjbb, 1),
		}, 2000},
		{"scarcity", []GroupModel{
			truthModel(t, server.XeonE52620, workload.SPECjbb, 3),
			truthModel(t, server.CoreI54460, workload.SPECjbb, 3),
		}, 90},
		{"curve-models", []GroupModel{
			curveModel(2, 35, 95, []float64{-40, 5.5, -0.012}),
			curveModel(3, 25, 70, []float64{-10, 3.2, -0.008}),
			curveModel(1, 45, 130, []float64{-80, 6.1, -0.015}),
		}, 700},
	}
	optSet := []Options{
		{},
		{GridStep: 0.1},
		{GridStep: 0.05, RefinePasses: 1},
		{GridStep: 0.02, RefinePasses: 5},
		{GridStep: 0.01, RefinePasses: -3}, // negative → no refinement
	}
	var w Warm
	for _, fx := range fixtures {
		for _, o := range optSet {
			want, err := Optimize(fx.models, fx.supply, o)
			if err != nil {
				t.Fatalf("%s: reference: %v", fx.name, err)
			}
			got, err := w.Optimize(fx.models, fx.supply, o)
			if err != nil {
				t.Fatalf("%s: warm: %v", fx.name, err)
			}
			resultsBitEqual(t, fx.name, got, want)
		}
	}
	// Errors are shared with the reference validator.
	if _, err := w.Optimize(nil, 100, Options{}); err != ErrNoGroups {
		t.Fatalf("warm validation: %v, want ErrNoGroups", err)
	}
}

// TestWarmMatchesOptimizeRandom drives 1000 seeded random model sets
// (mixed group counts, curve shapes, supplies, grids, refinement
// depths) through one shared Warm, asserting
// bit-identity with the cold solve on every draw — buffer reuse across
// changing shapes must never leak state between solves.
func TestWarmMatchesOptimizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// 0.005 is the finest ablation grid; 0.3 and 0.07 do not divide 1,
	// so their last rows clamp a negative residual to zero. Draws switch
	// steps on the shared Warm, rebuilding its residual index.
	gridSteps := []float64{0.1, 0.05, 0.02, 0.02, 0.05, 0.1, 0.25, 0.01, 0.005, 0.3, 0.07}
	var w Warm
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(3)
		models := make([]GroupModel, n)
		for g := range models {
			idle := 15 + 40*rng.Float64()
			peak := idle + 20 + 150*rng.Float64()
			coeffs := []float64{
				-60 + 80*rng.Float64(),
				0.5 + 6*rng.Float64(),
				-0.02 * rng.Float64(),
			}
			models[g] = curveModel(1+rng.Intn(10), idle, peak, coeffs)
		}
		supply := 50 + 2500*rng.Float64()
		o := Options{
			GridStep:     gridSteps[rng.Intn(len(gridSteps))],
			RefinePasses: rng.Intn(5),
		}
		want, err := Optimize(models, supply, o)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := w.Optimize(models, supply, o)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		resultsBitEqual(t, "random trial", got, want)
	}
}

// pruneFixture is one input of the pruned 3-group scan's exactness
// tests.
type pruneFixture struct {
	name   string
	models []GroupModel
	supply float64
}

// pruneFixtures are inputs where a wrong bound would change the pick:
// ties everywhere, a group-1 table that rises and then falls, totals
// that never beat the initial −1, and tables holding NaN or
// infinities, where the scan must not prune. pruneOptions are the
// option sets they run under.
func pruneFixtures() []pruneFixture {
	comb := func() []GroupModel {
		return []GroupModel{
			curveModel(2, 35, 95, []float64{-40, 5.5, -0.012}),
			curveModel(3, 25, 70, []float64{-10, 3.2, -0.008}),
			curveModel(1, 45, 130, []float64{-80, 6.1, -0.015}),
		}
	}
	negative := GroupModel{Count: 2, IdleW: 20, PeakEffW: 90,
		Perf: func(p float64) float64 { return -2 - p/100 }}
	return []pruneFixture{
		{"quantized-plateau", []GroupModel{
			plateauModel(comb()[0], 40),
			plateauModel(comb()[1], 25),
			plateauModel(comb()[2], 60),
		}, 700},
		// Group 1's curve peaks at 45 W, inside [30, 120], and is back
		// to zero by 60 W: its table is a narrow hump, so the value at
		// a window boundary says nothing about the points before it.
		{"interior-vertex", []GroupModel{
			curveModel(2, 35, 95, []float64{-40, 5.5, -0.012}),
			curveModel(1, 30, 120, []float64{-1800, 90, -1}),
			curveModel(2, 45, 130, []float64{-80, 6.1, -0.015}),
		}, 600},
		{"negative-everywhere", []GroupModel{negative, negative, negative}, 500},
		// Group 2's [0, 30) band covers its zero residual, which the
		// clamp below IdleW 45 now masks; its [45, 75) band covers the
		// first residual inside [IdleW, PeakEffW] at every step below
		// (49, 70 and 63 W), the first entry of its running maximum
		// that Perf fills.
		{"nan-band", []GroupModel{
			comb()[0],
			bandModel(comb()[1], 40, 48, math.NaN()),
			bandModel(bandModel(comb()[2], 0, 30, math.NaN()), 45, 75, math.NaN()),
		}, 700},
		// Row bases reach +Inf while group 2's low residuals are −Inf:
		// those totals and their bounds are NaN.
		{"opposite-infinities", []GroupModel{
			bandModel(comb()[0], 80, math.Inf(1), math.Inf(1)),
			comb()[1],
			bandModel(comb()[2], 0, 60, math.Inf(-1)),
		}, 700},
	}
}

var pruneOptions = []Options{
	{},
	{RefinePasses: -1},
	{GridStep: 0.05, RefinePasses: -1},
	{GridStep: 0.07},
}

// TestWarmPruneExactness runs the pruneFixtures through a fresh Warm;
// each must match the reference bit for bit.
func TestWarmPruneExactness(t *testing.T) {
	for _, fx := range pruneFixtures() {
		for _, o := range pruneOptions {
			want, err := Optimize(fx.models, fx.supply, o)
			if err != nil {
				t.Fatalf("%s: reference: %v", fx.name, err)
			}
			var w Warm
			got, err := w.Optimize(fx.models, fx.supply, o)
			if err != nil {
				t.Fatalf("%s: warm: %v", fx.name, err)
			}
			resultsBitEqual(t, fmt.Sprintf("%s %+v", fx.name, o), got, want)
		}
	}
}

// TestWarmIncumbentExactness plants the scan's incumbent, the last
// grid pick, at every grid point of every pruneFixture: wherever it
// sits, the solve must match the reference bit for bit. On
// quantized-plateau later points tie the first maximizer, so a hint
// there must not let the scan skip that maximizer; a hint on the
// maximizer itself must not stop the scan from picking it.
func TestWarmIncumbentExactness(t *testing.T) {
	for _, fx := range pruneFixtures() {
		for _, o := range pruneOptions {
			want, err := Optimize(fx.models, fx.supply, o)
			if err != nil {
				t.Fatalf("%s: reference: %v", fx.name, err)
			}
			steps := int(1/o.withDefaults().GridStep + 0.5)
			var w Warm
			for i := 0; i <= steps; i++ {
				for j := 0; i+j <= steps; j++ {
					w.hintSteps, w.hintI, w.hintJ = steps, i, j
					got, err := w.Optimize(fx.models, fx.supply, o)
					if err != nil {
						t.Fatalf("%s: warm: %v", fx.name, err)
					}
					resultsBitEqual(t, fmt.Sprintf("%s %+v hint (%d, %d)", fx.name, o, i, j), got, want)
				}
			}
		}
	}
}

// vModel is an unclamped group: its Perf, |p − dipW|, is non-zero below
// idle and still rises past peak, so only the solver's clamp keeps
// those powers from winning.
func vModel(count int, idleW, peakEffW, dipW float64) GroupModel {
	return GroupModel{Count: count, IdleW: idleW, PeakEffW: peakEffW,
		Perf: func(p float64) float64 { return math.Abs(p - dipW) }}
}

// clampedModel applies Eq. 8's clamp inside m's Perf, the way
// profiledb.Entry.Predict does.
func clampedModel(m GroupModel) GroupModel {
	inner := m.Perf
	m.Perf = func(p float64) float64 {
		if p < m.IdleW {
			return 0
		}
		return inner(math.Min(p, m.PeakEffW))
	}
	return m
}

// bandCalls is the number of Perf calls Eq. 8's clamp leaves for one
// group over the fractions fracs: one per distinct per-server power
// neither below IdleW nor above PeakEffW, plus one at PeakEffW when
// some power lies above it.
func bandCalls(m GroupModel, supply float64, fracs []float64) int {
	inBand := make(map[uint64]bool)
	above := 0
	for _, f := range fracs {
		switch p := f * supply / float64(m.Count); {
		case p < m.IdleW:
		case p > m.PeakEffW:
			above = 1
		default:
			inBand[math.Float64bits(p)] = true
		}
	}
	return len(inBand) + above
}

// TestWarmBandEdges puts grid points exactly on IdleW and PeakEffW: with
// a 1/8 grid every fraction, residual and 1−f₀ is a multiple of 1/8,
// and each group's per-server power at 2/8 of the supply is its idle
// power, at 6/8 its peak. The curves are non-zero below idle and rise
// past peak. Both solvers must agree bit for bit with each other and
// with the same groups clamped inside Perf, and with refinement off
// each group's Perf must run exactly as often as bandCalls says — a
// band edge off by one point changes that count.
func TestWarmBandEdges(t *testing.T) {
	const step = 0.125
	a := vModel(1, 200, 600, 450) // 100 W per grid step
	b := vModel(2, 100, 300, 225) // 50 W per grid step
	grid := make([]float64, 9)
	last2 := make([]float64, 9)
	var res []float64
	for i := range grid {
		grid[i] = float64(i) * step
		last2[i] = 1 - grid[i]
		for j := 0; i+j < len(grid); j++ {
			res = append(res, residual(grid[i], float64(j)*step))
		}
	}
	for _, tc := range []struct {
		name   string
		models []GroupModel
		supply float64
		// fracs lists each group's fractions over the grid scan.
		fracs [][]float64
	}{
		{"one-group", []GroupModel{a}, 800, [][]float64{grid}},
		{"two-groups", []GroupModel{a, b}, 800, [][]float64{grid, last2}},
		{"three-groups", []GroupModel{b, a, a}, 800, [][]float64{grid, grid, res}},
		// Zero fractions of an infinite supply give a NaN power.
		{"infinite-supply", []GroupModel{a, b}, math.Inf(1), [][]float64{grid, last2}},
	} {
		for _, o := range []Options{{GridStep: step, RefinePasses: -1}, {GridStep: step}} {
			label := fmt.Sprintf("%s %+v", tc.name, o)
			calls := make([]int, len(tc.models))
			counted := make([]GroupModel, len(tc.models))
			clamped := make([]GroupModel, len(tc.models))
			for g, m := range tc.models {
				g, inner := g, m.Perf
				counted[g] = m
				counted[g].Perf = func(p float64) float64 { calls[g]++; return inner(p) }
				clamped[g] = clampedModel(m)
			}
			var w Warm
			got, err := w.Optimize(counted, tc.supply, o)
			if err != nil {
				t.Fatalf("%s: warm: %v", label, err)
			}
			if o.RefinePasses < 0 {
				for g, m := range tc.models {
					if want := bandCalls(m, tc.supply, tc.fracs[g]); calls[g] != want {
						t.Errorf("%s: group %d Perf ran %d times, want %d", label, g, calls[g], want)
					}
				}
			}
			want, err := Optimize(tc.models, tc.supply, o)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			resultsBitEqual(t, label, got, want)
			ref, err := Optimize(clamped, tc.supply, o)
			if err != nil {
				t.Fatalf("%s: clamped: %v", label, err)
			}
			resultsBitEqual(t, label+" clamped", got, ref)
		}
	}
	// One group: idle's |200 − 450| = 250 beats every point in the
	// band, the 350 of 100 W below idle and the 350 of 800 W past peak.
	got, err := Optimize([]GroupModel{a}, 800, Options{GridStep: step})
	if err != nil {
		t.Fatal(err)
	}
	resultsBitEqual(t, "one-group optimum", got, Result{Fractions: []float64{0.25}, PredictedPerf: 250, Evaluations: 9})
}

// TestWarmOneGroupBand pins the one-group scan, which evaluates only
// its band [lo, hi) and the first point above it, to the reference
// scan over every grid point. On a 1/8 grid of an 800 W supply each
// point is 100 W apart, so every case places the band exactly; the
// cases cover a band at either end of the grid, an empty band, a
// one-point band, no point above peak, an infinite supply, NaN inside
// the band and ties between the band, the points below it and the flat
// top. One Warm runs every case in turn, so no case starts from clean
// scratch.
func TestWarmOneGroupBand(t *testing.T) {
	const step = 0.125
	// line is an unclamped group whose Perf is f(p): only the solver's
	// clamp applies Eq. 8.
	line := func(idleW, peakEffW float64, f func(p float64) float64) GroupModel {
		return GroupModel{Count: 1, IdleW: idleW, PeakEffW: peakEffW, Perf: f}
	}
	ident := func(p float64) float64 { return p }
	var w Warm
	for _, tc := range []struct {
		name   string
		m      GroupModel
		supply float64
		lo, hi int // the band bandEdges must report
	}{
		{"edges on grid points", vModel(1, 200, 600, 450), 800, 2, 7},
		{"band from the first positive point", line(50, 650, ident), 800, 1, 7},
		{"only the last point above peak", line(200, 750, ident), 800, 2, 8},
		{"no point above peak", line(200, 900, ident), 800, 2, 9},
		{"empty band between points", line(250, 280, ident), 800, 3, 3},
		{"every point below idle", line(900, 1000, ident), 800, 9, 9},
		{"one-point band", line(250, 350, ident), 800, 3, 4},
		{"one-point band, top loses", vModel(1, 250, 350, 330), 800, 3, 4},
		// Zero of an infinite supply is a NaN power, inside the band.
		{"infinite supply", line(200, 600, ident), math.Inf(1), 0, 1},
		{"infinite supply, negative band", line(200, 600, func(float64) float64 { return -2 }), math.Inf(1), 0, 1},
		{"NaN inside the band", bandModel(line(200, 600, ident), 300, 500, math.NaN()), 800, 2, 7},
		{"NaN top", bandModel(line(200, 600, ident), 600, 601, math.NaN()), 800, 2, 7},
		// Every in-band point and the top tie: the first in-band point wins.
		{"tied plateau", line(200, 600, func(float64) float64 { return 5 }), 800, 2, 7},
		// The band's maximum equals the top: its first point wins, not hi.
		{"plateau tied with the top", line(200, 600, func(p float64) float64 { return math.Min(p, 400) }), 800, 2, 7},
		// The band ties the +0 below it: point 0 keeps the pick.
		{"zero band", line(50, 650, func(float64) float64 { return 0 }), 800, 1, 7},
	} {
		if lo, hi := bandEdges(nil, step, 9, &tc.m, tc.supply); lo != tc.lo || hi != tc.hi {
			t.Fatalf("%s: band [%d, %d), want [%d, %d)", tc.name, lo, hi, tc.lo, tc.hi)
		}
		models := []GroupModel{tc.m}
		for _, o := range []Options{{GridStep: step, RefinePasses: -1}, {GridStep: step}} {
			label := fmt.Sprintf("%s %+v", tc.name, o)
			want, err := Optimize(models, tc.supply, o)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := w.Optimize(models, tc.supply, o)
			if err != nil {
				t.Fatalf("%s: warm: %v", label, err)
			}
			resultsBitEqual(t, label, got, want)
		}
	}
}

// comb5Models is the paper's Comb5 rack (Table IV): e5-2620, e5-2603
// and i5-4460, five servers each, on SPECjbb.
func comb5Models(t testing.TB) []GroupModel {
	return []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 5),
		truthModel(t, server.XeonE52603, workload.SPECjbb, 5),
		truthModel(t, server.CoreI54460, workload.SPECjbb, 5),
	}
}

// TestWarmResidualTablePerfCalls pins the 3-group scan to one
// evaluation of the last group per distinct residual fraction whose
// per-server power lies in [IdleW, PeakEffW], plus one at PeakEffW
// when some residual lies above it — not one per simplex point: with
// refinement off, that is exactly how often the last group's Perf runs.
func TestWarmResidualTablePerfCalls(t *testing.T) {
	const supply = 900
	for _, tc := range []struct {
		step     float64
		distinct int
	}{
		{0.01, 420},
		{0.005, 913},
	} {
		models := comb5Models(t)
		m2 := models[2]
		// The reference grid's residuals, counted independently, and
		// those the clamp leaves to Perf.
		steps := int(1/tc.step + 0.5)
		seen := make(map[uint64]bool)
		points, inBand, abovePeak := 0, 0, 0
		for i := 0; i <= steps; i++ {
			for j := 0; i+j <= steps; j++ {
				fr0 := float64(i) * tc.step
				fr1 := float64(j) * tc.step
				fr2 := 1 - fr0 - fr1
				if fr2 < 0 {
					fr2 = 0
				}
				points++
				if seen[math.Float64bits(fr2)] {
					continue
				}
				seen[math.Float64bits(fr2)] = true
				switch p := fr2 * supply / float64(m2.Count); {
				case p > m2.PeakEffW:
					abovePeak++
				case p >= m2.IdleW:
					inBand++
				}
			}
		}
		if len(seen) != tc.distinct {
			t.Fatalf("step %v: grid has %d distinct residuals, want %d", tc.step, len(seen), tc.distinct)
		}
		want := inBand
		if abovePeak > 0 {
			want++
		}
		if inBand == 0 || abovePeak == 0 || want >= tc.distinct {
			t.Fatalf("step %v: %d residuals in band, %d above peak: the fixture no longer has both clamps", tc.step, inBand, abovePeak)
		}

		var calls int
		models[2].Perf = func(p float64) float64 { calls++; return m2.Perf(p) }
		o := Options{GridStep: tc.step, RefinePasses: -1}
		var w Warm
		got, err := w.Optimize(models, supply, o)
		if err != nil {
			t.Fatal(err)
		}
		if calls != want {
			t.Fatalf("step %v: last group's Perf ran %d times, want %d (%d distinct residuals in band + 1 at peak; %d distinct, %d points)",
				tc.step, calls, want, inBand, tc.distinct, points)
		}
		ref, err := Optimize(models, supply, o)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitEqual(t, "residual table", got, ref)
	}
}

// TestResidualIndexSharedFirstUse empties the process-wide residual
// index cache and lets four Warms make their first 3-group solves on
// one grid step at once: each must match the reference, and all must
// share one index.
func TestResidualIndexSharedFirstUse(t *testing.T) {
	residualCache.mu.Lock()
	clear(residualCache.byStep)
	residualCache.mu.Unlock()
	models := []GroupModel{
		curveModel(5, 35, 95, []float64{-40, 5.5, -0.012}),
		curveModel(5, 25, 70, []float64{-10, 3.2, -0.008}),
		curveModel(5, 45, 130, []float64{-80, 6.1, -0.015}),
	}
	o := Options{GridStep: 0.02}
	want, err := Optimize(models, 900, o)
	if err != nil {
		t.Fatal(err)
	}
	warms := make([]Warm, 4)
	got := make([]Result, len(warms))
	errs := make([]error, len(warms))
	var wg sync.WaitGroup
	for k := range warms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = warms[k].Optimize(models, 900, o)
		}()
	}
	wg.Wait()
	for k := range warms {
		if errs[k] != nil {
			t.Fatalf("warm %d: %v", k, errs[k])
		}
		resultsBitEqual(t, fmt.Sprintf("warm %d", k), got[k], want)
		if warms[k].res != warms[0].res {
			t.Fatalf("warm %d built its own residual index", k)
		}
	}
}

// TestWarmOptimizeAllocs pins the steady state of a 3-group warm solve
// (the supply changes on every call): the only allocation is the Result's caller-owned Fractions copy.
func TestWarmOptimizeAllocs(t *testing.T) {
	models := []GroupModel{
		curveModel(5, 35, 95, []float64{-40, 5.5, -0.012}),
		curveModel(5, 25, 70, []float64{-10, 3.2, -0.008}),
		curveModel(5, 45, 130, []float64{-80, 6.1, -0.015}),
	}
	var w Warm
	supply := 600.0
	if _, err := w.Optimize(models, supply, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		supply++
		if _, err := w.Optimize(models, supply, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm 3-group solve allocates %v times per call, want at most 1", allocs)
	}
}

// BenchmarkWarmThreeGroups times the warm path on the Comb5 trio over
// a supply sweep: every solve runs the full 1 % scan and refinement.
func BenchmarkWarmThreeGroups(b *testing.B) {
	models := comb5Models(b)
	var w Warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		supply := 300 + 5*float64(i%256) // 300–1575 W
		if _, err := w.Optimize(models, supply, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmThreeCurves times the warm path on three clamped
// quadratics, the shape of the profiledb projections production solves
// use, over the same supply sweep as BenchmarkWarmThreeGroups. Cheap
// Perf calls leave the scan, not the table fills, as the bulk of a
// solve.
func BenchmarkWarmThreeCurves(b *testing.B) {
	models := []GroupModel{
		curveModel(5, 35, 95, []float64{-40, 5.5, -0.012}),
		curveModel(5, 25, 70, []float64{-10, 3.2, -0.008}),
		curveModel(5, 45, 130, []float64{-80, 6.1, -0.015}),
	}
	var w Warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		supply := 300 + 5*float64(i%256) // 300–1575 W
		if _, err := w.Optimize(models, supply, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmFractionsCallerOwned checks that a returned Fractions slice
// belongs to the caller: scribbling on it must not change the next
// solve through the same Warm.
func TestWarmFractionsCallerOwned(t *testing.T) {
	models := []GroupModel{
		curveModel(2, 35, 95, []float64{-40, 5.5, -0.012}),
		curveModel(3, 25, 70, []float64{-10, 3.2, -0.008}),
	}
	var w Warm
	first, err := w.Optimize(models, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		Fractions:     append([]float64(nil), first.Fractions...),
		PredictedPerf: first.PredictedPerf,
		Evaluations:   first.Evaluations,
	}
	for i := range first.Fractions {
		first.Fractions[i] = -1
	}
	second, err := w.Optimize(models, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resultsBitEqual(t, "after caller mutation", second, want)
}

// TestTrimEdgeCases exercises search.trim degeneracies directly: a
// single group over its useful maximum, a supply so scarce every
// nonzero fraction still leaves servers below idle (all zeroed), and
// the zero vector fixed point.
func TestTrimEdgeCases(t *testing.T) {
	one := []GroupModel{curveModel(2, 30, 80, []float64{0, 3, 0})}
	s := &search{models: one, supplyW: 1000}
	got := s.trim([]float64{1})
	// maxUseful = 2·80/1000 = 0.16.
	if want := 2 * 80.0 / 1000; got[0] != want {
		t.Fatalf("single-group trim = %v, want %v", got[0], want)
	}

	// Scarcity: 1 % of 100 W is 0.5 W per server, far below 30 W idle —
	// every fraction collapses to zero.
	s = &search{models: []GroupModel{
		curveModel(2, 30, 80, []float64{0, 3, 0}),
		curveModel(1, 30, 80, []float64{0, 3, 0}),
	}, supplyW: 100}
	got = s.trim([]float64{0.01, 0.2})
	if got[0] != 0 {
		t.Fatalf("below-idle fraction survived trim: %v", got)
	}
	// 0.2·100 = 20 W < 30 W idle for the single-server group too.
	if got[1] != 0 {
		t.Fatalf("below-idle fraction survived trim: %v", got)
	}

	got = s.trim([]float64{0, 0})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero vector not a trim fixed point: %v", got)
	}

	// The warm trim matches on the same edges.
	var w Warm
	if wgot := w.trimInto(s, []float64{0.01, 0.2}); wgot[0] != 0 || wgot[1] != 0 {
		t.Fatalf("warm trim diverged: %v", wgot)
	}
}

// TestRefineEdgeCases pins search.refine degeneracies: a single group
// returns untouched without evaluating anything, and a step that
// underflows to zero when halved makes every perturbation a no-op.
func TestRefineEdgeCases(t *testing.T) {
	one := []GroupModel{curveModel(2, 30, 80, []float64{0, 3, 0})}
	s := &search{models: one, supplyW: 200}
	c := candidate{fracs: []float64{0.5}, perf: 123}
	got := s.refine(c, 0.01, 3)
	if got.perf != 123 || got.fracs[0] != 0.5 || s.evals != 0 {
		t.Fatalf("single-group refine changed the candidate: %+v evals %d", got, s.evals)
	}

	// Smallest denormal: step/2 underflows to 0, so d ≤ 0 on every pair
	// and no objective is ever evaluated.
	two := []GroupModel{
		curveModel(1, 30, 80, []float64{0, 3, 0}),
		curveModel(1, 30, 80, []float64{0, 3, 0}),
	}
	s = &search{models: two, supplyW: 200}
	c = candidate{fracs: []float64{0.5, 0.5}, perf: 77}
	got = s.refine(c, math.SmallestNonzeroFloat64, 4)
	if got.perf != 77 || s.evals != 0 {
		t.Fatalf("underflowed refine still evaluated: %+v evals %d", got, s.evals)
	}
	var w Warm
	s2 := &search{models: two, supplyW: 200}
	wgot := w.refineInto(s2, candidate{fracs: []float64{0.5, 0.5}, perf: 77}, math.SmallestNonzeroFloat64, 4)
	if wgot.perf != 77 || s2.evals != 0 {
		t.Fatalf("warm underflowed refine diverged: %+v evals %d", wgot, s2.evals)
	}
}

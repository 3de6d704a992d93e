package solver

import (
	"math"
	"sync"
)

// Warm is a reusable solver context for the per-epoch hot path. It is
// bit-for-bit equivalent to Optimize — same Fractions, PredictedPerf,
// Evaluations, and errors for every input — but amortizes work five
// ways:
//
//   - Per-group grid tables: groups 0..n-2 have their objective
//     contributions precomputed once per grid value instead of once per
//     simplex point (the 3-group scan visits each (i,·) row steps
//     times).
//   - A residual table for the last of three groups: its fraction is the
//     simplex remainder 1−f₀−f₁ (clamped at 0), which depends only on
//     the grid step and takes far fewer distinct values than there are
//     points (420 bit patterns for the 5 151 points of the 1 % grid).
//     Every point is indexed to its distinct residual once per step per
//     process (residualIndexes), in an index every Warm shares, and the
//     group is evaluated once per distinct residual per solve.
//   - Band-limited tables: every table, the last group's included, is
//     filled by fillBand, which calls Perf only where a server's power
//     lies between IdleW and PeakEffW and fills the rest with Eq. 8's
//     clamped values. The scan's bounds are computed only inside each
//     band; the flat parts outside it are known. A single group has
//     no table: its scan visits only its band and the first point
//     above it.
//   - A pruned 3-group scan: each row visits only the window of points
//     whose upper bound (prefix and suffix maxima of the tables) still
//     strictly beats the best total so far; see gridSearchFast.
//   - An incumbent: the Warm remembers its last 3-group grid pick, and
//     the next scan on the same grid evaluates that point first. Its
//     total v is a lower bound on the grid maximum, so from the first
//     row on the scan also skips every position whose bound is strictly
//     below v.
//
// Every table entry is the reference objective's own value on the
// reference's own argument, and the scan adds the entries in the
// reference's order, so every candidate's total is bit-identical. The
// grid's tie-breaking is load-bearing: the scan takes the first strict
// improvement in row-major order, so the warm path visits the points it
// does not prune in exactly the reference order, and prunes only points
// whose total provably cannot exceed the best already found, or cannot
// reach the incumbent's — points the reference visits but never picks.
// The incumbent changes which points are skipped, never the pick.
// Evaluations still counts every grid point. All search scratch
// (tables, bounds, fraction buffers, the refine vector) is
// preallocated and reused, so a steady-state call performs a single
// small allocation: the returned Result's caller-owned Fractions slice.
//
// A Warm is not safe for concurrent use; give each goroutine its own.
// The zero value is ready.
type Warm struct {
	tables   [][]float64
	tableBuf []float64
	// bands holds each table's band [lo, hi) as fillBand returned it.
	bands [2]band
	// res is the shared residual index of the last 3-group grid step.
	res *residualIndex
	// The last 3-group grid pick, point (hintI, hintJ) of a grid with
	// hintSteps+1 values per group; hintSteps is 0, never a grid's,
	// until the first pick.
	hintSteps    int
	hintI, hintJ int
	// lastVal holds the last group's objective contributions for the
	// current solve: by lastFr with two groups, by residual rank with
	// three. lastFr[k] is the 2-group scan's last fraction 1−f₀ in row
	// steps−k, so it rises with k.
	lastVal []float64
	lastFr  []float64
	// Bounds of the 3-group scan: pre1 and suf1 are the prefix and
	// suffix maxima of group 1's table, pre2 the prefix maximum of
	// lastVal by residual rank.
	pre1     []float64
	suf1     []float64
	pre2     []float64
	bestBuf  []float64
	refineFr []float64
	trimmed  []float64
}

// band is the index range [lo, hi) of a table outside which fillBand
// wrote no new value: entries below lo are +0, and entries from hi on
// repeat the one at hi−1.
type band struct{ lo, hi int }

// Optimize is Optimize with warm-start: identical contract and results,
// reusing this Warm's scratch buffers.
//
// ghlint:allocfree
func (w *Warm) Optimize(models []GroupModel, supplyW float64, opts Options) (Result, error) {
	if err := validate(models, supplyW); err != nil {
		return Result{}, err
	}
	return w.solve(models, supplyW, opts.withDefaults()), nil
}

// solve runs the accelerated search. Inputs are already validated and
// defaulted.
//
// ghlint:allocfree
func (w *Warm) solve(models []GroupModel, supplyW float64, o Options) Result {
	s := search{models: models, supplyW: supplyW}
	best := w.gridSearchFast(&s, o.GridStep)
	best = w.refineInto(&s, best, o.GridStep, o.RefinePasses)
	fracs := w.trimInto(&s, best.fracs)
	return Result{
		Fractions:     append([]float64(nil), fracs...), //lint:ghlint ignore allocfree the caller-owned Fractions copy is the one budgeted per-epoch allocation (Result contract)
		PredictedPerf: best.perf,
		Evaluations:   s.evals,
	}
}

// fillBand sets dst[k] to m's objective contribution at fraction f_k,
// the reference's float64(Count)·clampedPerf(m, f_k·supplyW/Count),
// and calls Perf only where clampedPerf would: inside the band, plus
// once at PeakEffW when some point lies above it. f_k is fr[k], or the
// grid value float64(k)·step when fr is nil, and must never fall as k
// rises. Entries below the band are +0, the reference's Count·0. It
// returns the band with the first point above it, if any, included.
//
// ghlint:allocfree
func fillBand(dst, fr []float64, step float64, m *GroupModel, supplyW float64) band {
	count := float64(m.Count)
	lo, hi := bandEdges(fr, step, len(dst), m, supplyW)
	clear(dst[:lo])
	for k := lo; k < hi; k++ {
		dst[k] = count * m.Perf(fraction(fr, step, k)*supplyW/count)
	}
	if hi < len(dst) {
		top := count * m.Perf(m.PeakEffW)
		for k := hi; k < len(dst); k++ {
			dst[k] = top
		}
	}
	return band{lo, min(hi+1, len(dst))}
}

// bandEdges returns the band [lo, hi) of n fractions f_k as fillBand
// takes them. For a positive supply, IEEE multiplication and division
// are monotone, so the per-server power f_k·supplyW/Count never falls
// as k rises: the points below IdleW (strict <, as in clampedPerf) form
// a prefix [0, lo), the points above PeakEffW (strict <, PeakEffW on
// the left) a suffix [hi, n), and binary search finds both. The one
// unordered power is NaN, a zero fraction of an infinite supply;
// negative fractions of that supply are −Inf and positive ones +Inf,
// so the NaN sits between the prefix and the suffix, where Perf sees
// it as the reference does.
//
// ghlint:allocfree
func bandEdges(fr []float64, step float64, n int, m *GroupModel, supplyW float64) (lo, hi int) {
	count := float64(m.Count)
	lo, hi = 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fraction(fr, step, mid)*supplyW/count < m.IdleW {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = n
	for l := lo; l < hi; {
		mid := int(uint(l+hi) >> 1)
		if m.PeakEffW < fraction(fr, step, mid)*supplyW/count {
			hi = mid
		} else {
			l = mid + 1
		}
	}
	return lo, hi
}

// fraction is fillBand's k-th fraction: fr[k], or float64(k)·step when
// fr is nil.
//
// ghlint:allocfree
func fraction(fr []float64, step float64, k int) float64 {
	if fr == nil {
		return float64(k) * step
	}
	return fr[k]
}

// lastValues returns w.lastVal resized to n entries.
//
// ghlint:allocfree
func (w *Warm) lastValues(n int) []float64 {
	if cap(w.lastVal) < n {
		w.lastVal = make([]float64, n)
	}
	w.lastVal = w.lastVal[:n]
	return w.lastVal
}

// gridSearchFast scans the simplex in the reference row-major order,
// reading groups 0..n-2 from per-grid-value tables and, with two or
// three groups, the last group from w.lastVal: by its fraction 1−f₀
// with two, by residual rank with three. Accumulation replays the
// reference objective: total starts at zero and adds group
// contributions in index order, so every candidate's perf is
// bit-identical and the first-strict-improvement tie-breaking picks the
// same point.
//
// With three groups each row scans only the positions [lo, hi) that
// window returns: every point outside them has a total ≤ best.perf, so
// it could at most tie, and first-strict-improvement never picks it.
// When the last 3-group pick was made on the same grid and the tables
// are finite, the scan first evaluates that point, the incumbent, to v,
// and window also drops every position whose bound is strictly below
// v: the first point that attains the grid maximum has a bound ≥ the
// maximum ≥ v, so it is still visited, and it still wins. best.perf
// starts at −1 all the same, so the pick and its tie-break do not move.
// The skipped points still count toward Evaluations, which therefore
// matches the reference's count.
//
// ghlint:allocfree
func (w *Warm) gridSearchFast(s *search, step float64) candidate {
	n := len(s.models)
	steps := int(1/step + 0.5)
	if cap(w.bestBuf) < n {
		w.bestBuf = make([]float64, n)
	}
	best := candidate{fracs: w.bestBuf[:n], perf: -1}
	for i := range best.fracs {
		best.fracs[i] = 0
	}

	w.fillTables(s, steps, step)
	last := &s.models[n-1]

	switch n {
	case 1:
		// fillBand's values, computed in the scan (a table here would
		// cost every one-group rack of a fleet its own buffer), and
		// only where they can win: below the band every total is +0,
		// so only point 0 can beat the starting −1, and fracs[0] is
		// already 0; from hi on every total is the flat top, so only
		// point hi can.
		lo, hi := bandEdges(nil, step, steps+1, last, s.supplyW)
		count := float64(last.Count)
		s.evals += steps + 1
		if lo > 0 {
			best.perf = 0
		}
		for i := lo; i < hi; i++ {
			if total := 0.0 + count*last.Perf(float64(i)*step*s.supplyW/count); total > best.perf {
				best.perf = total
				best.fracs[0] = float64(i) * step
			}
		}
		if hi <= steps {
			if total := 0.0 + count*last.Perf(last.PeakEffW); total > best.perf {
				best.perf = total
				best.fracs[0] = float64(hi) * step
			}
		}
	case 2:
		t0 := w.tables[0]
		if cap(w.lastFr) < steps+1 {
			w.lastFr = make([]float64, steps+1)
		}
		fr1 := w.lastFr[:steps+1]
		for k := range fr1 {
			fr1[k] = 1 - float64(steps-k)*step
		}
		v1 := w.lastValues(steps + 1)
		fillBand(v1, fr1, 0, last, s.supplyW)
		s.evals += steps + 1
		for i := 0; i <= steps; i++ {
			total := 0.0 + t0[i]
			total += v1[steps-i]
			if total > best.perf {
				best.perf = total
				best.fracs[0] = float64(i) * step
				best.fracs[1] = fr1[steps-i]
			}
		}
	case 3:
		t0, t1 := w.tables[0], w.tables[1]
		if w.res == nil || math.Float64bits(w.res.step) != math.Float64bits(step) {
			w.res = residualCache.residualsFor(steps, step)
		}
		v2 := w.lastValues(len(w.res.fr))
		b2 := fillBand(v2, w.res.fr, 0, last, s.supplyW)
		prune := w.fillBounds(t0, t1, v2, b2)
		// floor is the largest threshold below the incumbent's total:
		// a bound ≤ floor is a bound < v.
		floor := math.Inf(-1)
		if prune && w.hintSteps == steps {
			i, j := w.hintI, w.hintJ
			v := (0.0 + t0[i]) + t1[j] + v2[w.res.idx[rowStart(steps, i)+j]]
			floor = math.Nextafter(v, math.Inf(-1))
		}
		pickI, pickJ := -1, -1
		idx := w.res.idx
		for i := 0; i <= steps; i++ {
			base := 0.0 + t0[i]
			row := idx[:steps-i+1]
			idx = idx[len(row):]
			s.evals += len(row)
			lo, hi := 0, len(row)
			if prune {
				threshold := best.perf
				if floor > threshold {
					threshold = floor
				}
				lo, hi = w.window(base, row, threshold)
			}
			t1 := t1[:len(row)] // proves t1[j] in bounds
			for j := lo; j < hi; j++ {
				if total := base + t1[j] + v2[row[j]]; total > best.perf {
					best.perf = total
					pickI, pickJ = i, j
				}
			}
		}
		if pickI >= 0 {
			f0, f1 := float64(pickI)*step, float64(pickJ)*step
			best.fracs[0] = f0
			best.fracs[1] = f1
			best.fracs[2] = residual(f0, f1)
			w.hintSteps, w.hintI, w.hintJ = steps, pickI, pickJ
		}
	}
	return best
}

// rowStart is the row-major position of point (i, 0) on a 3-group grid
// with steps+1 values per group: rows 0..i-1 hold steps+1, steps, …
// points.
//
// ghlint:allocfree
func rowStart(steps, i int) int { return i*(steps+1) - i*(i-1)/2 }

// fillBounds computes the 3-group scan's bounds into w.pre1, w.suf1 and
// w.pre2 from the tables t0, t1 and v2, whose bands are w.bands[0],
// w.bands[1] and b2, and reports whether every entry of the three is
// finite. Only then may the scan prune: a NaN entry poisons a running
// maximum that starts on it, and +Inf + −Inf makes a bound NaN, which
// compares false against everything. Outside its band a table holds +0
// or repeats, so only the band is checked and scanned.
//
// ghlint:allocfree
func (w *Warm) fillBounds(t0, t1, v2 []float64, b2 band) bool {
	if cap(w.pre1) < len(t1) {
		w.pre1 = make([]float64, len(t1))
		w.suf1 = make([]float64, len(t1))
	}
	if cap(w.pre2) < len(v2) {
		w.pre2 = make([]float64, len(v2))
	}
	w.pre1, w.suf1, w.pre2 = w.pre1[:len(t1)], w.suf1[:len(t1)], w.pre2[:len(v2)]
	if !bandFinite(t0, w.bands[0]) || !prefixMax(w.pre1, t1, w.bands[1]) || !prefixMax(w.pre2, v2, b2) {
		return false
	}
	suffixMax(w.suf1, t1, w.bands[1])
	return true
}

// bandFinite reports whether every entry of a table with band b is
// finite: the +0 entries before the band are, and those after it
// repeat one in it.
//
// ghlint:allocfree
func bandFinite(src []float64, b band) bool {
	for _, v := range src[b.lo:b.hi] {
		if !finite(v) {
			return false
		}
	}
	return true
}

// prefixMax sets dst[k] to the maximum of src[0..k], a table with band
// b, and reports whether every entry of src is finite, stopping at the
// first that is not. The running maximum is +0 before the band and
// constant after it.
//
// ghlint:allocfree
func prefixMax(dst, src []float64, b band) bool {
	clear(dst[:b.lo])
	m := src[0]
	for k := b.lo; k < b.hi; k++ {
		v := src[k]
		if !finite(v) {
			return false
		}
		if v > m {
			m = v
		}
		dst[k] = m
	}
	for k := b.hi; k < len(dst); k++ {
		dst[k] = m
	}
	return true
}

// suffixMax sets dst[k] to the maximum of src[k..], a table with band b:
// the repeated last value after the band, the running maximum inside
// it, and one constant before it.
//
// ghlint:allocfree
func suffixMax(dst, src []float64, b band) {
	m := src[len(src)-1]
	for k := b.hi; k < len(dst); k++ {
		dst[k] = m
	}
	for k := b.hi - 1; k >= b.lo; k-- {
		if src[k] > m {
			m = src[k]
		}
		dst[k] = m
	}
	if b.lo > 0 {
		if src[0] > m {
			m = src[0]
		}
		for k := range dst[:b.lo] {
			dst[k] = m
		}
	}
}

// finite reports whether v is neither NaN nor ±Inf; both comparisons
// are false for NaN.
//
// ghlint:allocfree
func finite(v float64) bool { return v >= -math.MaxFloat64 && v <= math.MaxFloat64 }

// window returns the positions [lo, hi) of a 3-group row, with group 0's
// contribution base and residual ranks row, whose totals can still
// strictly exceed best; every other position's total is ≤ best.
//
// A row's residuals (1−f₀)−f₁ never rise as j rises, and they are all
// ≥ +0, so their bit order is their numeric order: the ranks row[j]
// never rise either, and pre2[row[j]] bounds group 2 at every position
// from j on. IEEE addition is monotone, so
//
//   - positions up to j total at most (base+pre1[j]) + pre2[row[0]],
//     a head bound that rises with j;
//   - positions from j on total at most (base+suf1[j]) + pre2[row[j]],
//     a tail bound that falls with j.
//
// Each bound is monotone in j, so binary search finds lo, the first
// position whose head bound exceeds best, and hi, the first position
// from lo whose tail bound does not. fillBounds must have reported
// every table finite, so no bound is NaN.
//
// ghlint:allocfree
func (w *Warm) window(base float64, row []int32, best float64) (lo, hi int) {
	pre1, suf1, pre2 := w.pre1, w.suf1, w.pre2
	n := len(row)
	top2 := pre2[row[0]]
	if (base+pre1[n-1])+top2 <= best {
		return n, n // the head bound covers the whole row
	}
	lo, hi = 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if (base+pre1[mid])+top2 > best {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l := lo
	hi = n
	for l < hi {
		mid := int(uint(l+hi) >> 1)
		if (base+suf1[mid])+pre2[row[mid]] > best {
			l = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// residual is the last of three groups' fraction at grid point (f0, f1)
// — the reference grid's simplex remainder, clamped at zero.
//
// ghlint:allocfree
// ghlint:units f0=frac f1=frac result=frac
func residual(f0, f1 float64) float64 {
	f2 := 1 - f0 - f1
	if f2 < 0 {
		f2 = 0
	}
	return f2
}

// residualIndex is the 3-group residual table of one grid step: idx
// maps each row-major grid point to its distinct residual, and fr holds
// the distinct residuals in ascending order. It depends on the step
// alone and is never written after newResidualIndex returns, so every
// Warm on that step shares one.
type residualIndex struct {
	step float64
	idx  []int32
	fr   []float64
}

// maxCachedSteps bounds residualCache: a process solves on a handful of
// grid steps (the ablations use four), so a full cache means a stream
// of ad-hoc steps, and starting over keeps its memory flat.
const maxCachedSteps = 8

// residualIndexes holds the residual index of each grid step in use.
type residualIndexes struct {
	mu sync.Mutex
	// ghlint:guardedby mu
	byStep map[uint64]*residualIndex
}

// residualCache is the process's one residualIndexes.
var residualCache = residualIndexes{byStep: make(map[uint64]*residualIndex)}

// residualsFor returns the shared residual index of a grid step with
// steps+1 values per group, building it on the step's first use. The
// build runs under the cache's lock, so concurrent first uses wait for
// one build instead of repeating it.
//
// ghlint:allocfree
func (c *residualIndexes) residualsFor(steps int, step float64) *residualIndex {
	key := math.Float64bits(step)
	c.mu.Lock()
	ri := c.byStep[key]
	if ri == nil {
		if len(c.byStep) >= maxCachedSteps {
			clear(c.byStep)
		}
		ri = newResidualIndex(steps, step)
		c.byStep[key] = ri
	}
	c.mu.Unlock()
	return ri
}

// newResidualIndex builds the residual index of a grid step. The
// distinct set is kept sorted by binary-search insertion — a one-time
// cost per step (the 1 % grid has 420 distinct residuals). Residuals
// are never NaN or −0, so equal values have equal bits.
func newResidualIndex(steps int, step float64) *residualIndex {
	points := (steps + 1) * (steps + 2) / 2
	distinct := make([]float64, 0, points)
	for i := 0; i <= steps; i++ {
		f0 := float64(i) * step
		for j := 0; i+j <= steps; j++ {
			r := residual(f0, float64(j)*step)
			k := searchSorted(distinct, r)
			if k < len(distinct) && math.Float64bits(distinct[k]) == math.Float64bits(r) {
				continue
			}
			distinct = distinct[:len(distinct)+1]
			copy(distinct[k+1:], distinct[k:])
			distinct[k] = r
		}
	}
	idx := make([]int32, points)
	p := 0
	for i := 0; i <= steps; i++ {
		f0 := float64(i) * step
		for j := 0; i+j <= steps; j++ {
			idx[p] = int32(searchSorted(distinct, residual(f0, float64(j)*step)))
			p++
		}
	}
	return &residualIndex{step: step, idx: idx, fr: append([]float64(nil), distinct...)}
}

// searchSorted returns the first index of sorted whose value is ≥ v.
//
// ghlint:allocfree
func searchSorted(sorted []float64, v float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fillTables precomputes groups 0..n-2's contributions at every grid
// value, reusing one backing buffer across calls.
//
// ghlint:allocfree
func (w *Warm) fillTables(s *search, steps int, step float64) {
	n := len(s.models)
	tabled := n - 1
	need := tabled * (steps + 1)
	if cap(w.tableBuf) < need {
		w.tableBuf = make([]float64, need)
	}
	if cap(w.tables) < tabled {
		w.tables = make([][]float64, tabled)
	}
	w.tables = w.tables[:tabled]
	for g := 0; g < tabled; g++ {
		tbl := w.tableBuf[g*(steps+1) : (g+1)*(steps+1)]
		w.bands[g] = fillBand(tbl, nil, step, &s.models[g], s.supplyW)
		w.tables[g] = tbl
	}
}

// refineInto is the reference refine with the pass-local fraction
// vector taken from reused scratch instead of a per-call allocation.
// The arithmetic, iteration order, and acceptance rule are identical.
//
// ghlint:allocfree
func (w *Warm) refineInto(s *search, c candidate, step float64, passes int) candidate {
	n := len(s.models)
	if n == 1 {
		return c
	}
	if cap(w.refineFr) < n {
		w.refineFr = make([]float64, n)
	}
	fr := w.refineFr[:n]
	copy(fr, c.fracs)
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

// trimInto is the reference trim writing into reused scratch.
//
// ghlint:allocfree
func (w *Warm) trimInto(s *search, fracs []float64) []float64 {
	if cap(w.trimmed) < len(fracs) {
		w.trimmed = make([]float64, len(fracs))
	}
	out := w.trimmed[:len(fracs)]
	copy(out, fracs)
	for i := range s.models {
		m := &s.models[i]
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

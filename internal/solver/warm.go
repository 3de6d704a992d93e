package solver

import "math"

// Warm is a reusable solver context for the per-epoch hot path. It is
// bit-for-bit equivalent to Optimize — same Fractions, PredictedPerf,
// Evaluations, and errors for every input — but amortizes work four
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
//     The Warm indexes every point to its distinct residual once per
//     step and evaluates the group once per distinct residual per solve.
//   - Band-limited tables: every table, the last group's included, is
//     filled by fillBand, which calls Perf only where a server's power
//     lies between IdleW and PeakEffW and fills the rest with Eq. 8's
//     clamped values.
//   - A pruned 3-group scan: each row visits only the window of points
//     whose upper bound (prefix and suffix maxima of the tables) still
//     strictly beats the best total so far; see gridSearchFast.
//
// Every table entry is the reference objective's own value on the
// reference's own argument, and the scan adds the entries in the
// reference's order, so every candidate's total is bit-identical. The
// grid's tie-breaking is load-bearing: the scan takes the first strict
// improvement in row-major order, so the warm path visits the points it
// does not prune in exactly the reference order, and prunes only points
// whose total provably cannot exceed the best already found — points
// the reference visits but never picks. Evaluations still counts every
// grid point. All search scratch (tables, residual index, bounds,
// fraction buffers, the refine vector) is preallocated and reused, so a
// steady-state call performs a single small allocation: the returned
// Result's caller-owned Fractions slice.
//
// A Warm is not safe for concurrent use; give each goroutine its own.
// The zero value is ready.
type Warm struct {
	tables   [][]float64
	tableBuf []float64
	// Residual table of the 3-group scan: resIdx maps each grid point
	// (row-major) to its distinct residual, and resFr holds the
	// distinct residuals in ascending order. resStep is the grid step
	// the index was built for (0, never a valid step, until the first
	// build).
	resStep float64
	resIdx  []int32
	resFr   []float64
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
	fracs    []float64
	bestBuf  []float64
	refineFr []float64
	trimmed  []float64
}

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
// rises. Entries below the band are +0, the reference's Count·0.
//
// ghlint:allocfree
func fillBand(dst, fr []float64, step float64, m *GroupModel, supplyW float64) {
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
		// fillBand's values, computed in the scan: a table here would
		// cost every one-group rack of a fleet its own buffer.
		lo, hi := bandEdges(nil, step, steps+1, last, s.supplyW)
		count := float64(last.Count)
		var top float64
		if hi <= steps {
			top = count * last.Perf(last.PeakEffW)
		}
		s.evals += steps + 1
		for i := 0; i <= steps; i++ {
			var v float64
			if i >= hi {
				v = top
			} else if i >= lo {
				v = count * last.Perf(float64(i)*step*s.supplyW/count)
			}
			if total := 0.0 + v; total > best.perf {
				best.perf = total
				best.fracs[0] = float64(i) * step
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
		w.indexResiduals(steps, step)
		v2 := w.lastValues(len(w.resFr))
		fillBand(v2, w.resFr, 0, last, s.supplyW)
		prune := w.fillBounds(t0, t1, v2)
		idx := w.resIdx
		for i := 0; i <= steps; i++ {
			base := 0.0 + t0[i]
			row := idx[:steps-i+1]
			idx = idx[len(row):]
			s.evals += len(row)
			lo, hi := 0, len(row)
			if prune {
				lo, hi = w.window(base, row, best.perf)
			}
			t1 := t1[:len(row)] // proves t1[j] in bounds
			for j := lo; j < hi; j++ {
				if total := base + t1[j] + v2[row[j]]; total > best.perf {
					best.perf = total
					f0, f1 := float64(i)*step, float64(j)*step
					best.fracs[0] = f0
					best.fracs[1] = f1
					best.fracs[2] = residual(f0, f1)
				}
			}
		}
	}
	return best
}

// fillBounds computes the 3-group scan's bounds into w.pre1, w.suf1 and
// w.pre2, and reports whether every entry of t0, t1 and v2 is finite.
// Only then may the scan prune: a NaN entry poisons a running maximum
// that starts on it, and +Inf + −Inf makes a bound NaN, which compares
// false against everything.
//
// ghlint:allocfree
func (w *Warm) fillBounds(t0, t1, v2 []float64) bool {
	if cap(w.pre1) < len(t1) {
		w.pre1 = make([]float64, len(t1))
		w.suf1 = make([]float64, len(t1))
	}
	if cap(w.pre2) < len(v2) {
		w.pre2 = make([]float64, len(v2))
	}
	w.pre1, w.suf1, w.pre2 = w.pre1[:len(t1)], w.suf1[:len(t1)], w.pre2[:len(v2)]
	for _, v := range t0 {
		if !finite(v) {
			return false
		}
	}
	if !prefixMax(w.pre1, t1) || !prefixMax(w.pre2, v2) {
		return false
	}
	m := t1[len(t1)-1]
	for j := len(t1) - 1; j >= 0; j-- {
		if t1[j] > m {
			m = t1[j]
		}
		w.suf1[j] = m
	}
	return true
}

// prefixMax sets dst[k] to the maximum of src[0..k] and reports
// whether every entry of src is finite, stopping at the first that is
// not.
//
// ghlint:allocfree
func prefixMax(dst, src []float64) bool {
	m := src[0]
	for k, v := range src {
		if !finite(v) {
			return false
		}
		if v > m {
			m = v
		}
		dst[k] = m
	}
	return true
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

// indexResiduals builds the 3-group residual table for a grid step:
// w.resFr gets the distinct residuals in ascending order, w.resIdx maps
// each row-major grid point to its entry. Both depend on the step
// alone, so a Warm rebuilds them only when the step's bits change. The
// distinct set is kept sorted by binary-search insertion — a one-time
// cost per step (the 1 % grid has 420 distinct residuals). Residuals
// are never NaN or −0, so equal values have equal bits.
//
// ghlint:allocfree
func (w *Warm) indexResiduals(steps int, step float64) {
	if math.Float64bits(w.resStep) == math.Float64bits(step) {
		return
	}
	points := (steps + 1) * (steps + 2) / 2
	if cap(w.resIdx) < points {
		w.resIdx = make([]int32, points)
	}
	if cap(w.resFr) < points {
		w.resFr = make([]float64, points)
	}
	distinct := w.resFr[:0]
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
	idx := w.resIdx[:points]
	p := 0
	for i := 0; i <= steps; i++ {
		f0 := float64(i) * step
		for j := 0; i+j <= steps; j++ {
			idx[p] = int32(searchSorted(distinct, residual(f0, float64(j)*step)))
			p++
		}
	}
	w.resIdx = idx
	w.resFr = distinct
	w.resStep = step
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
		fillBand(tbl, nil, step, &s.models[g], s.supplyW)
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

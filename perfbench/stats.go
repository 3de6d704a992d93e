package main

import (
	"math"
	"slices"
)

// tailLadder is the set of percentiles the tail metric chooses from:
// the highest rung with at least minBeyond timed epochs behind the
// per-epoch medians above it, so a tail figure never rests on a handful
// of timings. It holds p90 alone. Above p90 a rack run's pooled tail
// was set by stalls of the host (other tenants), not by the program:
// rack p99 spread 0.27 across seeds and drifted 35 % between two sets
// of runs, p99.9 read 138–895 us and p99.99 0.5–5 ms over five runs.
var tailLadder = []float64{90}

// minBeyond is the fewest timed epochs a reported tail percentile must
// have behind the medians above it.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p
// (0..100) in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// centralMean is the mean of the sorted samples from percentile lo to
// percentile hi. The benchmark reports the p40–p60 mean as its median
// epoch: a rack's epochs fall in three modes (Case A epochs near 13 us,
// then about 30 and 50 us), and the plain median sits where the lower
// modes end, so it jumped between 30 and 50 us from run to run as the
// host's speed shifted epochs across that edge. The band mean moves
// smoothly instead; on a single-mode fleet it equals the median to
// within the band's width.
func centralMean(sorted []int64, lo, hi float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	band := sorted[rank(len(sorted), lo)-1 : rank(len(sorted), hi)]
	return float64(sum64(band)) / float64(len(band))
}

// tailStat is the tail-latency figure with the evidence behind it.
type tailStat struct {
	// Pct is the chosen percentile (e.g. 90).
	Pct float64
	// Value is the per-epoch median at that percentile.
	Value int64
	// Beyond is the number of schedule epochs above the percentile's
	// rank; each is a median over perEpoch timings.
	Beyond int
}

// tail picks the highest ladder percentile of the sorted per-epoch
// medians with at least minBeyond timings behind the medians beyond it.
// perEpoch is the number of timings behind each median. With too
// little evidence for any rung it falls back to the median, and Beyond
// says how thin the evidence is.
func tail(sorted []int64, perEpoch int) tailStat {
	n := len(sorted)
	for _, p := range tailLadder {
		if r := rank(n, p); (n-r)*perEpoch >= minBeyond {
			return tailStat{Pct: p, Value: sorted[r-1], Beyond: n - r}
		}
	}
	r := rank(n, 50)
	return tailStat{Pct: 50, Value: percentile(sorted, 50), Beyond: n - r}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// medianF returns the median of xs (mean of the middle pair when even).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sum64 totals xs.
func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// meanNs is the mean of xs in nanoseconds (0 for no samples).
func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(sum64(xs)) / float64(len(xs))
}

// maxNs is the largest of xs (0 for no samples).
func maxNs(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// ratio is a/b, or 0 when b is 0 (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profile collects each schedule epoch's host time over the passes of
// a run. Every pass replays the same schedule, so epoch i does the same
// work in each, and a percentile over passes leaves out the stalls and
// slow spells that other tenants of the shared host cause. At
// percentile 0 only each epoch's fastest time is kept, so the
// benchmark's own memory, which max_rss_mb includes, stays fixed
// however many passes a run makes. At other percentiles every pass is
// kept, which the fleets' 48-epoch schedule makes cheap (384 bytes a
// pass).
type profile struct {
	q       float64   // percentile over passes (0 is the fastest pass)
	fastest []int64   // q == 0: each epoch's fastest time so far
	passes  [][]int64 // q > 0: every pass's epoch times
	seen    int       // passes added
	timed   int       // epochs added
}

func newProfile(q float64) *profile { return &profile{q: q} }

func (pr *profile) add(xs []int64) {
	pr.seen++
	pr.timed += len(xs)
	switch {
	case pr.q > 0:
		pr.passes = append(pr.passes, xs)
	case pr.fastest == nil:
		pr.fastest = slices.Clone(xs)
	default:
		for i, x := range xs {
			pr.fastest[i] = min(pr.fastest[i], x)
		}
	}
}

// times returns each schedule epoch's nearest-rank percentile q over
// the passes, sorted ascending.
func (pr *profile) times() []int64 {
	if pr.q == 0 {
		return sortedCopy(pr.fastest)
	}
	if len(pr.passes) == 0 {
		return nil
	}
	out := make([]int64, len(pr.passes[0]))
	col := make([]int64, len(pr.passes))
	for i := range out {
		for k, xs := range pr.passes {
			col[k] = xs[i]
		}
		slices.Sort(col)
		out[i] = percentile(col, pr.q)
	}
	slices.Sort(out)
	return out
}

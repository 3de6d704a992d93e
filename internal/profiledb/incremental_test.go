package profiledb

import (
	"fmt"
	"math"
	"testing"

	"greenhetero/internal/fit"
)

// referenceDB mirrors the pre-accumulator AddFeedback semantics exactly:
// append all incoming samples, trim to the window via a fresh copy,
// widen the peak, batch-refit with fitCurve. The incremental path must
// match it bit for bit — window contents, curve coefficients, R²,
// bounds, refit counts, and error outcomes alike.
type referenceDB struct {
	maxSamples int
	entries    map[Key]*Entry
}

func (r *referenceDB) addFeedback(k Key, samples ...fit.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	e := r.entries[k]
	e.Samples = append(e.Samples, samples...)
	if over := len(e.Samples) - r.maxSamples; over > 0 {
		e.Samples = append(e.Samples[:0:0], e.Samples[over:]...)
	}
	for _, s := range samples {
		if s.X > e.PeakEffW {
			e.PeakEffW = s.X
		}
	}
	curve, err := fitCurve(e.Samples)
	if err != nil {
		return err
	}
	e.Curve = curve
	e.Refits++
	return nil
}

func entriesBitEqual(t *testing.T, step int, got Entry, want *Entry) {
	t.Helper()
	if math.Float64bits(got.IdleW) != math.Float64bits(want.IdleW) ||
		math.Float64bits(got.PeakEffW) != math.Float64bits(want.PeakEffW) {
		t.Fatalf("step %d: bounds diverged: got (%v, %v) want (%v, %v)",
			step, got.IdleW, got.PeakEffW, want.IdleW, want.PeakEffW)
	}
	if got.Refits != want.Refits {
		t.Fatalf("step %d: refits %d vs %d", step, got.Refits, want.Refits)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("step %d: window %d vs %d samples", step, len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("step %d sample %d: %v vs %v", step, i, got.Samples[i], want.Samples[i])
		}
	}
	if len(got.Curve.Coeffs) != len(want.Curve.Coeffs) {
		t.Fatalf("step %d: curve degree %d vs %d", step, len(got.Curve.Coeffs)-1, len(want.Curve.Coeffs)-1)
	}
	for i := range got.Curve.Coeffs {
		if math.Float64bits(got.Curve.Coeffs[i]) != math.Float64bits(want.Curve.Coeffs[i]) {
			t.Fatalf("step %d coeff %d: %v (%#x) vs %v (%#x)", step, i,
				got.Curve.Coeffs[i], math.Float64bits(got.Curve.Coeffs[i]),
				want.Curve.Coeffs[i], math.Float64bits(want.Curve.Coeffs[i]))
		}
	}
	if gr, wr := fit.RSquared(got.Samples, got.Curve), fit.RSquared(want.Samples, want.Curve); math.Float64bits(gr) != math.Float64bits(wr) {
		t.Fatalf("step %d: R² %v vs %v", step, gr, wr)
	}
}

// TestAddFeedbackMatchesBatchRefit drives the incremental refit path
// through growth, eviction, degenerate windows, and recovery, checking
// bit-identity against the batch reference after every call.
func TestAddFeedbackMatchesBatchRefit(t *testing.T) {
	const window = maxSamples
	k := Key{ServerID: "xeon", WorkloadID: "jbb"}
	train := []fit.Sample{{X: 40, Y: 100}, {X: 55, Y: 180}, {X: 70, Y: 240}, {X: 85, Y: 280}}

	db := New()
	if err := db.AddTrainingRun(k, 30, 90, train); err != nil {
		t.Fatal(err)
	}
	ref := &referenceDB{maxSamples: window, entries: map[Key]*Entry{k: {
		Key: k, IdleW: 30, PeakEffW: 90,
		Samples: append([]fit.Sample(nil), train...),
	}}}
	refCurve, err := fitCurve(ref.entries[k].Samples)
	if err != nil {
		t.Fatal(err)
	}
	ref.entries[k].Curve = refCurve

	// Feedback stream: single appends, multi-sample batches, a batch
	// bigger than the remaining window, a batch bigger than the whole
	// window, a degenerate all-same-X burst (refit fails, curve kept),
	// then recovery samples.
	steps := [][]fit.Sample{
		{{X: 62, Y: 210.5}},
		{{X: 47.25, Y: 151}},
		{{X: 95, Y: 310}}, // widens PeakEffW
		{{X: 58, Y: 190}, {X: 66, Y: 222}, {X: 74, Y: 251}, {X: 81, Y: 270}, {X: 88, Y: 288}},
		{{X: 52, Y: 170}, {X: 69, Y: 230}, {X: 77, Y: 258}},
		func() []fit.Sample { // overflows the window: evicts part of it
			over := make([]fit.Sample, window-5)
			for i := range over {
				x := 41 + 0.7*float64(i)
				over[i] = fit.Sample{X: x, Y: 95 + 3.1*x - 0.01*x*x}
			}
			return over
		}(),
		func() []fit.Sample { // one batch larger than the whole window
			big := make([]fit.Sample, window+3)
			for i := range big {
				x := 42 + 3.1*float64(i)
				big[i] = fit.Sample{X: x, Y: 90 + 2.9*x}
			}
			return big
		}(),
		func() []fit.Sample { // degenerate: flood the window with one X
			bad := make([]fit.Sample, window)
			for i := range bad {
				bad[i] = fit.Sample{X: 60, Y: float64(200 + i)}
			}
			return bad
		}(),
		{{X: 50, Y: 160}, {X: 72, Y: 240}},
	}

	for i, batch := range steps {
		gotErr := db.AddFeedback(k, batch...)
		wantErr := ref.addFeedback(k, batch...)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: incremental err %v, reference err %v", i, gotErr, wantErr)
		}
		got, err := db.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		entriesBitEqual(t, i, got, ref.entries[k])
	}
}

// TestAddFeedbackSteadyStateAllocFree pins the per-epoch refit to zero
// allocations once the window has filled: the fit.Polynomial and
// solveLinear per-call allocations live in reused accumulator buffers.
func TestAddFeedbackSteadyStateAllocFree(t *testing.T) {
	k := Key{ServerID: "xeon", WorkloadID: "jbb"}
	db := New()
	train := []fit.Sample{{X: 40, Y: 100}, {X: 55, Y: 180}, {X: 70, Y: 240}, {X: 85, Y: 280}}
	if err := db.AddTrainingRun(k, 30, 90, train); err != nil {
		t.Fatal(err)
	}
	// Warm up: fill the window past capacity so every further call runs
	// the evict+re-accumulate+refit path, and let slice capacities settle.
	fb := make([]fit.Sample, 1)
	for i := 0; i < 2*maxSamples; i++ {
		x := 40 + float64(i%50)
		fb[0] = fit.Sample{X: x, Y: 80 + 3*x - 0.011*x*x}
		if err := db.AddFeedback(k, fb...); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		x := 40 + float64(i%50)
		fb[0] = fit.Sample{X: x, Y: 80 + 3*x - 0.011*x*x}
		if err := db.AddFeedback(k, fb...); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddFeedback allocates %v per call, want 0", allocs)
	}
}

// TestAddFeedbackAfterTrainingAllocFree pins the feedback that fills a
// freshly trained entry's window to zero allocations, from the first
// AddFeedback on: the training run allocates the window at full
// capacity and builds the incremental sums. Each run takes its own
// newly trained key.
func TestAddFeedbackAfterTrainingAllocFree(t *testing.T) {
	const runs = 50
	db := New()
	train := []fit.Sample{{X: 40, Y: 100}, {X: 55, Y: 180}, {X: 70, Y: 240}, {X: 85, Y: 280}}
	keys := make([]Key, runs+1) // AllocsPerRun adds one warm-up run
	for i := range keys {
		keys[i] = Key{ServerID: "xeon", WorkloadID: fmt.Sprintf("w%d", i)}
		if err := db.AddTrainingRun(keys[i], 30, 90, train); err != nil {
			t.Fatal(err)
		}
	}
	fb := make([]fit.Sample, 1)
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		k := keys[run]
		run++
		for i := len(train); i < maxSamples; i++ {
			x := 40 + float64(i%50)
			fb[0] = fit.Sample{X: x, Y: 80 + 3*x - 0.011*x*x}
			if err := db.AddFeedback(k, fb...); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("filling a trained window allocates %v per entry, want 0", allocs)
	}
}

// TestProjectionMatchesLookup checks that the samples-free multi-key
// fetch carries exactly the fields Lookup does, minus the window, bit
// for bit; that it reuses caller capacity without aliasing the store;
// and that a miss stops at the first missing key with the bare
// ErrNotFound.
func TestProjectionMatchesLookup(t *testing.T) {
	ka := Key{ServerID: "xeon", WorkloadID: "jbb"}
	kb := Key{ServerID: "i5", WorkloadID: "memcached"}
	db := New()
	if err := db.AddTrainingRun(ka, 30, 90, []fit.Sample{{X: 40, Y: 100}, {X: 55, Y: 180}, {X: 70, Y: 240}, {X: 85, Y: 280}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTrainingRun(kb, 20, 60, []fit.Sample{{X: 25, Y: 30}, {X: 35, Y: 70}, {X: 45, Y: 95}, {X: 55, Y: 110}}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFeedback(ka, fit.Sample{X: 62, Y: 210}); err != nil {
		t.Fatal(err)
	}

	keys := []Key{ka, kb}
	out := make([]Entry, len(keys))
	if n, err := db.ProjectionsInto(keys, out); n != len(keys) || err != nil {
		t.Fatalf("ProjectionsInto = %d, %v; want %d, nil", n, err, len(keys))
	}
	for i, k := range keys {
		full, err := db.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		proj := out[i]
		if proj.Samples != nil {
			t.Fatalf("projection %d carries %d samples, want none", i, len(proj.Samples))
		}
		proj.Samples = full.Samples
		entriesBitEqual(t, i, proj, &full)
	}

	// Reuse path: no allocations once the entries have capacity, and
	// mutating them never reaches the store.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.ProjectionsInto(keys, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProjectionsInto allocates %v per call into warm entries, want 0", allocs)
	}
	out[0].Curve.Coeffs[0] = -999
	again, err := db.Lookup(ka)
	if err != nil {
		t.Fatal(err)
	}
	if again.Curve.Coeffs[0] == -999 {
		t.Fatal("mutating a fetched projection reached the store")
	}

	// A miss is on the bid path before a rack's first training run: it
	// fills the entries before the first missing key, reports that
	// key's index, returns the bare sentinel and allocates nothing.
	missing := Key{ServerID: "nope", WorkloadID: "nope"}
	for _, tc := range []struct {
		keys []Key
		want int
	}{
		{[]Key{missing, ka}, 0},
		{[]Key{ka, missing, kb}, 1},
		{[]Key{ka, kb, missing, missing}, 2},
	} {
		got := make([]Entry, len(tc.keys))
		n, err := db.ProjectionsInto(tc.keys, got)
		if n != tc.want || err != ErrNotFound { // the bare sentinel, unwrapped
			t.Fatalf("ProjectionsInto(%v) = %d, %v; want %d, bare ErrNotFound", tc.keys, n, err, tc.want)
		}
		for i := 0; i < n; i++ {
			if got[i].Key != tc.keys[i] {
				t.Fatalf("ProjectionsInto(%v): entry %d = %v, want it filled", tc.keys, i, got[i].Key)
			}
		}
		if got[n].Key != (Key{}) {
			t.Fatalf("ProjectionsInto(%v) filled the missing key's entry", tc.keys)
		}
	}
	missKeys := []Key{ka, missing}
	allocs = testing.AllocsPerRun(100, func() {
		_, _ = db.ProjectionsInto(missKeys, out)
	})
	if allocs != 0 {
		t.Fatalf("ProjectionsInto allocates %v per miss, want 0", allocs)
	}
}

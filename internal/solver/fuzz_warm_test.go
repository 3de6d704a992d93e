package solver

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzWarmOptimize is the differential proof behind Warm: a seed draws
// zero to four clamped-quadratic group models (an occasional malformed
// one; an occasional one quantized into plateaus where totals tie,
// returning NaN or ±Inf on a band of powers where the 3-group scan must
// not prune, or left unclamped for the solver's own clamp; an
// occasional one whose IdleW or PeakEffW is exactly the per-server
// power of a grid value, residual or 1−f₀, a band edge), and the
// remaining inputs pick the supply, grid step and refinement depth.
// Warm.Optimize must match the reference Optimize bit for bit —
// fractions, predicted perf, Evaluations and error outcome — on a
// fresh Warm, on a repeat of the same input through the same Warm
// (reused scratch, its own pick as the incumbent), on a Warm last used
// with a different grid step (another residual index), and after a
// neighbouring solve: the same models at a perturbed supply, which
// leaves a stale incumbent on the same grid.
//
// Grid steps finer than the 0.005 ablation grid are raised to it: each
// halving of the step quadruples a 3-group scan, so finer grids buy no
// coverage per second of fuzzing. Steps Options maps to the default
// (non-positive, above 0.5, NaN) pass through unchanged.
func FuzzWarmOptimize(f *testing.F) {
	f.Add(int64(1), uint8(3), 600.0, 0.01, int8(0))
	f.Add(int64(2), uint8(3), 900.0, 0.005, int8(-1))
	f.Add(int64(3), uint8(3), 400.0, 0.3, int8(2))
	f.Add(int64(4), uint8(3), 1200.0, 0.07, int8(5))
	f.Add(int64(5), uint8(2), 220.0, 0.01, int8(3))
	f.Add(int64(6), uint8(1), 500.0, 0.1, int8(1))
	f.Add(int64(7), uint8(0), 100.0, 0.01, int8(0))
	f.Add(int64(8), uint8(4), 100.0, 0.01, int8(0))
	f.Add(int64(9), uint8(3), -5.0, 0.01, int8(0))
	f.Add(int64(10), uint8(3), 700.0, 0.0, int8(0))
	f.Add(int64(11), uint8(3), 700.0, 0.75, int8(0))
	f.Add(int64(12), uint8(3), 700.0, math.NaN(), int8(0))
	f.Add(int64(13), uint8(3), math.Inf(1), 0.05, int8(1))
	f.Add(int64(14), uint8(3), 700.0, 0.01, int8(0))  // group 1 on plateaus
	f.Add(int64(31), uint8(3), 700.0, 0.01, int8(0))  // group 1 NaN on a band
	f.Add(int64(115), uint8(3), 700.0, 0.01, int8(0)) // group 2 +Inf from 0 W
	f.Add(int64(30), uint8(3), 700.0, 0.01, int8(-1)) // group 0 peak on a grid value
	f.Add(int64(23), uint8(3), 700.0, 0.01, int8(0))  // groups 0 (unclamped) and 1 idle on grid values
	f.Add(int64(8), uint8(3), 900.0, 0.01, int8(-1))  // group 2 idle on a residual, unclamped
	f.Add(int64(38), uint8(3), 900.0, 0.01, int8(0))  // group 2 peak on a residual
	f.Add(int64(17), uint8(2), 450.0, 0.07, int8(1))  // group 1 peak on a 1−f₀
	f.Add(int64(23), uint8(2), 450.0, 0.07, int8(-1)) // group 1 idle on a 1−f₀
	f.Add(int64(23), uint8(1), 300.0, 0.01, int8(0))  // one unclamped group, idle on a grid value
	f.Add(int64(4), uint8(1), 300.0, 0.01, int8(0))   // one unclamped group

	f.Fuzz(func(t *testing.T, seed int64, groups uint8, supply, step float64, passes int8) {
		if step > 0 && step < 0.005 {
			step = 0.005
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(groups % 5)
		models := make([]GroupModel, n)
		gridStep := Options{GridStep: step}.withDefaults().GridStep
		steps := int(1/gridStep + 0.5)
		for g := range models {
			idle := 15 + 40*rng.Float64()
			peak := idle + 20 + 150*rng.Float64()
			coeffs := []float64{
				-60 + 80*rng.Float64(),
				0.5 + 6*rng.Float64(),
				-0.02 * rng.Float64(),
			}
			models[g] = curveModel(1+rng.Intn(10), idle, peak, coeffs)
			switch rng.Intn(16) {
			case 1:
				models[g].PeakEffW = idle
			case 2:
				models[g] = plateauModel(models[g], 5+80*rng.Float64())
			case 3:
				lo := 0.0
				if rng.Intn(2) == 0 {
					lo = (peak + 20) * rng.Float64()
				}
				hi := lo + 5 + 60*rng.Float64()
				v := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				models[g] = bandModel(models[g], lo, hi, v)
			case 4:
				models[g] = rawModel(models[g].Count, idle, peak, coeffs)
			case 5, 6:
				// A band edge on a power the scan tabulates for this
				// group: a grid value's, or for the last group of two
				// 1−f₀'s and of three a residual's.
				i := rng.Intn(steps + 1)
				fr := float64(i) * gridStep
				switch {
				case n == 2 && g == 1:
					fr = 1 - fr
				case n == 3 && g == 2:
					fr = residual(fr, float64(rng.Intn(steps-i+1))*gridStep)
				}
				count := models[g].Count
				edge := fr * supply / float64(count)
				idle, peak := edge, edge+20+150*rng.Float64()
				if rng.Intn(2) == 0 {
					idle, peak = edge*(0.2+0.6*rng.Float64()), edge
				}
				models[g] = curveModel(count, idle, peak, coeffs)
				if rng.Intn(2) == 0 {
					models[g] = rawModel(count, idle, peak, coeffs)
				}
			}
		}
		o := Options{GridStep: step, RefinePasses: int(passes)}

		want, wantErr := Optimize(models, supply, o)
		var w Warm
		check := func(label string) {
			t.Helper()
			got, gotErr := w.Optimize(models, supply, o)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: reference err %v, warm err %v", label, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s: reference err %q, warm err %q", label, wantErr, gotErr)
				}
				return
			}
			resultsBitEqual(t, label, got, want)
		}
		check("fresh")
		check("repeat")
		// Leave the Warm indexed for another step, then come back.
		other := Options{GridStep: 0.25}
		if math.Float64bits(step) == math.Float64bits(other.GridStep) {
			other.GridStep = 0.1
		}
		if _, err := w.Optimize(models, supply, other); (err == nil) != (wantErr == nil) {
			t.Fatalf("step switch: err %v, reference err %v", err, wantErr)
		}
		check("after step switch")
		// Only the incumbent this solve leaves matters, not its outcome.
		_, _ = w.Optimize(models, supply*(0.8+0.4*rng.Float64()), o)
		check("after neighbouring solve")
	})
}

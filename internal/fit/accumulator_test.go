package fit

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// polyBitsEqual reports whether two fits of window are bit-identical
// (coefficients, N, and the R² RSquared derives from them), the
// equivalence currency of the hot-path optimizations.
func polyBitsEqual(window []Sample, a, b Poly) bool {
	if a.N != b.N || len(a.Coeffs) != len(b.Coeffs) ||
		math.Float64bits(RSquared(window, a)) != math.Float64bits(RSquared(window, b)) {
		return false
	}
	for i := range a.Coeffs {
		if math.Float64bits(a.Coeffs[i]) != math.Float64bits(b.Coeffs[i]) {
			return false
		}
	}
	return true
}

// quadSamples synthesizes a noisy-but-deterministic quadratic window.
func quadSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		x := 40 + 3.7*float64(i)
		out[i] = Sample{X: x, Y: 12 + 4.1*x - 0.013*x*x + math.Sin(float64(i))}
	}
	return out
}

func TestAccumulatorMatchesBatchAppendOnly(t *testing.T) {
	samples := quadSamples(40)
	var acc Accumulator
	for i, s := range samples {
		acc.Append(s)
		window := samples[:i+1]
		for _, deg := range []int{1, 2} {
			want, wantErr := Polynomial(window, deg)
			got, gotErr := acc.Fit(deg)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("n=%d deg=%d: batch err %v, acc err %v", i+1, deg, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("n=%d deg=%d: error text %q vs %q", i+1, deg, wantErr, gotErr)
				}
				continue
			}
			if !polyBitsEqual(window, want, got) {
				t.Fatalf("n=%d deg=%d: batch %+v, acc %+v not bit-identical", i+1, deg, want, got)
			}
		}
	}
}

func TestAccumulatorMatchesBatchAfterEviction(t *testing.T) {
	// 64 is profiledb's production window cap.
	for _, window := range []int{16, 64} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			samples := quadSamples(window + 44)
			var acc Accumulator
			var win []Sample
			for _, s := range samples {
				win = append(win, s)
				if len(win) > window {
					win = win[1:]
					acc.ReplaceWindow(win)
				} else {
					acc.Append(s)
				}
				want, err := Quadratic(win)
				if err != nil {
					continue
				}
				got, err := acc.Fit(2)
				if err != nil {
					t.Fatalf("acc fit errored (%v) where batch succeeded", err)
				}
				if !polyBitsEqual(win, want, got) {
					t.Fatalf("window fit diverged: batch %+v acc %+v", want, got)
				}
			}
		})
	}
}

func TestAccumulatorFailedSolveKeepsPreviousCoeffs(t *testing.T) {
	good := quadSamples(8)
	var acc Accumulator
	acc.ReplaceWindow(good)
	p, err := acc.Fit(2)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]float64(nil), p.Coeffs...)

	// Degenerate window: all samples share X — singular normal equations.
	bad := make([]Sample, 8)
	for i := range bad {
		bad[i] = Sample{X: 50, Y: float64(i)}
	}
	acc.ReplaceWindow(bad)
	if _, err := acc.Fit(2); err == nil {
		t.Fatal("expected singular fit to fail")
	}
	// The previously returned Poly must be untouched: a live profiledb
	// curve stays in force after a degenerate refit.
	for i := range kept {
		if math.Float64bits(kept[i]) != math.Float64bits(p.Coeffs[i]) {
			t.Fatalf("failed solve corrupted previous coefficients: %v vs %v", kept, p.Coeffs)
		}
	}
}

func TestAccumulatorValidation(t *testing.T) {
	var acc Accumulator
	acc.ReplaceWindow(quadSamples(2))
	if _, err := acc.Fit(2); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("2 samples, degree 2: %v", err)
	}
	acc.ReplaceWindow(quadSamples(5))
	for _, deg := range []int{0, 3} {
		if _, err := acc.Fit(deg); !errors.Is(err, ErrBadDegree) {
			t.Fatalf("degree %d: %v", deg, err)
		}
	}
	if _, err := acc.Fit(2); err != nil {
		t.Fatalf("valid fit: %v", err)
	}
}

func TestAccumulatorFitAllocsFree(t *testing.T) {
	samples := quadSamples(64)
	var acc Accumulator
	acc.ReplaceWindow(samples)
	if _, err := acc.Fit(2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		acc.ReplaceWindow(samples)
		if _, err := acc.Fit(2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReplaceWindow+Fit allocates %v per run, want 0", allocs)
	}
}

package fit

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFitIncremental is the differential proof behind the accumulator:
// arbitrary bytes decode into a stream of (x, y) samples fed through a
// bounded window (mimicking profiledb's 64-sample cap), maintained both
// as a plain slice refit by the batch Polynomial and as an Accumulator.
// Append-only growth uses Append; evictions use ReplaceWindow (the type
// comment documents why an O(1) subtractive eviction is only ULP-close
// and therefore not offered). At every step both paths must agree
// bit-for-bit — same error outcome, same coefficients, and so the same
// RSquared — for both the quadratic and linear fits profiledb falls back
// through.
func FuzzFitIncremental(f *testing.F) {
	seed := func(samples ...float64) []byte {
		b := make([]byte, 8*len(samples))
		for i, v := range samples {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(40, 100, 55, 180, 70, 240, 85, 280, 100, 300))
	f.Add(seed(40, 100, 55, 180, 70, 240))  // exactly determined
	f.Add(seed(40, 100, 55, 180))           // too few for quadratic
	f.Add(seed(50, 1, 50, 2, 50, 3, 50, 4)) // degenerate: shared X
	f.Add(seed(0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(seed(math.MaxFloat64, 1, -math.MaxFloat64, 2, 1, 3))
	f.Add(seed(math.Inf(1), 1, 2, math.NaN(), 3, 4))
	f.Add(seed(1e-300, 1e300, 2e-300, -1e300, 3e-300, 0))
	// Long stream: 12 samples through an 8-slot window forces evictions.
	long := make([]float64, 0, 24)
	for i := 0; i < 12; i++ {
		x := 40 + 5*float64(i)
		long = append(long, x, 10+3*x-0.01*x*x)
	}
	f.Add(seed(long...))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		// First byte (if any) picks the window cap in [4, 11] so small
		// inputs still exercise eviction; remaining bytes are samples.
		cap := 8
		if len(data) > 0 {
			cap = 4 + int(data[0]%8)
			data = data[1:]
		}

		var acc Accumulator
		var window []Sample
		for i := 0; i+16 <= len(data); i += 16 {
			s := Sample{
				X: math.Float64frombits(binary.LittleEndian.Uint64(data[i:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:])),
			}
			window = append(window, s)
			if len(window) > cap {
				window = window[1:]
				acc.ReplaceWindow(window)
			} else {
				acc.Append(s)
			}

			for _, deg := range []int{1, 2} {
				want, wantErr := Polynomial(window, deg)
				got, gotErr := acc.Fit(deg)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("step %d deg %d: batch err %v, accumulator err %v (window %v)",
						i/16, deg, wantErr, gotErr, window)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("step %d deg %d: error %q vs %q", i/16, deg, wantErr, gotErr)
					}
					continue
				}
				if want.N != got.N || len(want.Coeffs) != len(got.Coeffs) {
					t.Fatalf("step %d deg %d: shape mismatch %+v vs %+v", i/16, deg, want, got)
				}
				for k := range want.Coeffs {
					if math.Float64bits(want.Coeffs[k]) != math.Float64bits(got.Coeffs[k]) {
						t.Fatalf("step %d deg %d coeff %d: batch %v (%#x), accumulator %v (%#x)",
							i/16, deg, k, want.Coeffs[k], math.Float64bits(want.Coeffs[k]),
							got.Coeffs[k], math.Float64bits(got.Coeffs[k]))
					}
				}
				if wr, gr := RSquared(window, want), RSquared(window, got); math.Float64bits(wr) != math.Float64bits(gr) {
					t.Fatalf("step %d deg %d: R² %v vs %v", i/16, deg, wr, gr)
				}
			}
		}
	})
}

package fit

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFitQuadratic hardens the curve-fit entry point the profiledb
// update path re-fits on every feedback sample (paper §IV-B.2),
// mirroring the FuzzLoadScenario pattern: arbitrary bytes decode into
// (x, y) samples, and Quadratic must either return an error or a
// well-formed polynomial — never panic, never return NaN/Inf
// coefficients, and always reproduce the same fit for the same samples
// (the determinism contract every golden table leans on).
func FuzzFitQuadratic(f *testing.F) {
	seed := func(samples ...float64) []byte {
		b := make([]byte, 8*len(samples))
		for i, v := range samples {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	// The paper's shape: a handful of well-scaled (power, perf) points.
	f.Add(seed(40, 100, 55, 180, 70, 240, 85, 280, 100, 300))
	f.Add(seed(40, 100, 55, 180, 70, 240))  // exactly determined
	f.Add(seed(40, 100, 55, 180))           // too few samples
	f.Add(seed(50, 1, 50, 2, 50, 3, 50, 4)) // degenerate: shared X
	f.Add(seed(0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(seed(math.MaxFloat64, 1, -math.MaxFloat64, 2, 1, 3))
	f.Add(seed(math.Inf(1), 1, 2, math.NaN(), 3, 4))
	f.Add(seed(1e-300, 1e300, 2e-300, -1e300, 3e-300, 0))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3}) // trailing partial sample is dropped

	f.Fuzz(func(t *testing.T, data []byte) {
		samples := make([]Sample, 0, len(data)/16)
		for i := 0; i+16 <= len(data); i += 16 {
			samples = append(samples, Sample{
				X: math.Float64frombits(binary.LittleEndian.Uint64(data[i:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:])),
			})
		}

		p, err := Quadratic(samples)
		if err != nil {
			return // rejecting degenerate input is fine; panicking is not
		}
		if got, want := len(p.Coeffs)-1, 2; got != want {
			t.Fatalf("Quadratic degree = %d, want %d", got, want)
		}
		if p.N != len(samples) {
			t.Fatalf("Quadratic N = %d, want %d", p.N, len(samples))
		}
		for i, c := range p.Coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("coefficient %d is %v for samples %v", i, c, samples)
			}
		}

		// Same samples, same fit — bit-identical, not approximately.
		q, err := Quadratic(samples)
		if err != nil {
			t.Fatalf("refit errored (%v) after a successful fit", err)
		}
		for i := range p.Coeffs {
			if math.Float64bits(p.Coeffs[i]) != math.Float64bits(q.Coeffs[i]) {
				t.Fatalf("refit coefficient %d differs: %v vs %v", i, p.Coeffs[i], q.Coeffs[i])
			}
		}
	})
}

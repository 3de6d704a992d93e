package fit

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestLinearExact(t *testing.T) {
	// y = 3 + 2x fitted from exact points must recover coefficients.
	samples := []Sample{{0, 3}, {1, 5}, {2, 7}, {3, 9}}
	p, err := Linear(samples)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if !almostEqual(p.Coeffs[0], 3, 1e-9) || !almostEqual(p.Coeffs[1], 2, 1e-9) {
		t.Errorf("coeffs = %v, want [3 2]", p.Coeffs)
	}
	if r2 := RSquared(samples, p); !almostEqual(r2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", r2)
	}
}

func TestQuadraticExact(t *testing.T) {
	// y = 1 - 0.5x + 0.25x².
	truth := Poly{Coeffs: []float64{1, -0.5, 0.25}}
	var samples []Sample
	for x := -3.0; x <= 3; x += 0.5 {
		samples = append(samples, Sample{x, truth.Eval(x)})
	}
	p, err := Quadratic(samples)
	if err != nil {
		t.Fatalf("Quadratic: %v", err)
	}
	for i, want := range truth.Coeffs {
		if !almostEqual(p.Coeffs[i], want, 1e-9) {
			t.Errorf("coeff[%d] = %v, want %v", i, p.Coeffs[i], want)
		}
	}
}

func TestQuadraticNoisy(t *testing.T) {
	// With symmetric noise the fit should land near the truth.
	rng := rand.New(rand.NewSource(42))
	truth := Poly{Coeffs: []float64{10, 3, -0.05}}
	var samples []Sample
	for x := 40.0; x <= 180; x += 5 {
		samples = append(samples, Sample{x, truth.Eval(x) + rng.NormFloat64()*2})
	}
	p, err := Quadratic(samples)
	if err != nil {
		t.Fatalf("Quadratic: %v", err)
	}
	for x := 50.0; x <= 170; x += 30 {
		if !almostEqual(p.Eval(x), truth.Eval(x), 5) {
			t.Errorf("Eval(%v) = %v, want ≈ %v", x, p.Eval(x), truth.Eval(x))
		}
	}
	if r2 := RSquared(samples, p); r2 < 0.99 {
		t.Errorf("R2 = %v, want ≥ 0.99", r2)
	}
}

func TestPolynomialDegreeErrors(t *testing.T) {
	samples := []Sample{{0, 0}, {1, 1}, {2, 2}}
	tests := []struct {
		name    string
		degree  int
		samples []Sample
		wantErr error
	}{
		{"degree zero", 0, samples, ErrBadDegree},
		{"degree too high", 7, samples, ErrBadDegree},
		{"too few samples", 2, samples[:2], ErrTooFewSamples},
		{"degenerate x", 1, []Sample{{1, 1}, {1, 2}, {1, 3}}, ErrSingular},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Polynomial(tt.samples, tt.degree)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDegreeAndString(t *testing.T) {
	p := Poly{Coeffs: []float64{1, 2, 3}}
	s := p.String()
	for _, frag := range []string{"1", "2·x", "3·x^2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if (Poly{}).String() != "fit.Poly{}" {
		t.Errorf("empty String() = %q", (Poly{}).String())
	}
}

func TestRSquaredConstantY(t *testing.T) {
	// All-Y-identical: fit is exact, R2 defined as 1.
	samples := []Sample{{0, 5}, {1, 5}, {2, 5}, {3, 5}}
	p, err := Linear(samples)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if r2 := RSquared(samples, p); !almostEqual(r2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", r2)
	}
}

// Property: fitting exact points of a random quadratic recovers values of
// the quadratic everywhere in the sampled interval.
func TestQuickQuadraticRecovery(t *testing.T) {
	f := func(a, b, c int8) bool {
		truth := Poly{Coeffs: []float64{float64(a), float64(b) / 8, float64(c) / 64}}
		var samples []Sample
		for x := 0.0; x <= 10; x++ {
			samples = append(samples, Sample{x, truth.Eval(x)})
		}
		p, err := Quadratic(samples)
		if err != nil {
			return false
		}
		for x := 0.5; x < 10; x += 1.7 {
			if !almostEqual(p.Eval(x), truth.Eval(x), 1e-6*(1+math.Abs(truth.Eval(x)))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Eval and Horner agree with naive power evaluation.
func TestQuickEvalMatchesNaive(t *testing.T) {
	f := func(c0, c1, c2, c3 int8, xi int8) bool {
		p := Poly{Coeffs: []float64{float64(c0), float64(c1), float64(c2), float64(c3)}}
		x := float64(xi) / 16
		naive := float64(c0) + float64(c1)*x + float64(c2)*x*x + float64(c3)*x*x*x
		return almostEqual(p.Eval(x), naive, 1e-9*(1+math.Abs(naive)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkQuadraticFit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for x := 40.0; x <= 180; x += 2 {
		samples = append(samples, Sample{x, 10 + 3*x - 0.05*x*x + rng.NormFloat64()})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quadratic(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// Package fit provides small least-squares fitting utilities used by the
// GreenHetero performance-power database.
//
// The paper (§IV-B.2) fits a quadratic Perf = f(Power) to a handful of
// profiled (power, performance) samples, and re-fits as feedback samples
// arrive. This package implements polynomial least squares via normal
// equations solved with partially-pivoted Gaussian elimination, which is
// numerically adequate for the low degrees (≤3) and well-scaled inputs
// used here.
package fit

import (
	"errors"
	"fmt"
	"math"
)

// Sample is one observed (x, y) pair, e.g. (power watts, throughput).
type Sample struct {
	X float64
	Y float64
}

var (
	// ErrTooFewSamples is returned when fewer samples than coefficients
	// are supplied.
	ErrTooFewSamples = errors.New("fit: too few samples for requested degree")
	// ErrSingular is returned when the normal equations are singular,
	// e.g. all samples share the same X.
	ErrSingular = errors.New("fit: singular system (degenerate samples)")
	// ErrBadDegree is returned for degrees outside [1, 6].
	ErrBadDegree = errors.New("fit: degree must be in [1, 6]")
)

// Poly is a fitted polynomial y = Coeffs[0] + Coeffs[1]*x + Coeffs[2]*x² + …
type Poly struct {
	// Coeffs holds the polynomial coefficients in ascending-power order.
	Coeffs []float64
	// N is the number of samples used.
	N int
}

// Eval evaluates the polynomial at x using Horner's scheme.
//
// ghlint:allocfree
func (p Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// String renders the polynomial in human-readable ascending-power form.
func (p Poly) String() string {
	if len(p.Coeffs) == 0 {
		return "fit.Poly{}"
	}
	s := ""
	for i, c := range p.Coeffs {
		if i > 0 {
			s += " + "
		}
		switch i {
		case 0:
			s += fmt.Sprintf("%.6g", c)
		case 1:
			s += fmt.Sprintf("%.6g·x", c)
		default:
			s += fmt.Sprintf("%.6g·x^%d", c, i)
		}
	}
	return s
}

// Polynomial fits a least-squares polynomial of the given degree to the
// samples. Degree 2 reproduces the paper's quadratic projection.
func Polynomial(samples []Sample, degree int) (Poly, error) {
	if degree < 1 || degree > 6 {
		return Poly{}, ErrBadDegree
	}
	m := degree + 1
	if len(samples) < m {
		return Poly{}, fmt.Errorf("%w: have %d, need %d", ErrTooFewSamples, len(samples), m)
	}

	// Build normal equations A·c = b where A[i][j] = Σ x^(i+j),
	// b[i] = Σ y·x^i.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	b := make([]float64, m)
	// powSums[k] = Σ x^k for k in [0, 2·degree].
	powSums := make([]float64, 2*degree+1)
	for _, s := range samples {
		xp := 1.0
		for k := 0; k <= 2*degree; k++ {
			powSums[k] += xp
			if k < m {
				b[k] += s.Y * xp
			}
			xp *= s.X
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a[i][j] = powSums[i+j]
		}
	}

	coeffs, err := solveLinear(a, b)
	if err != nil {
		return Poly{}, err
	}

	return Poly{Coeffs: coeffs, N: len(samples)}, nil
}

// Linear fits y = a + b·x; a convenience wrapper around Polynomial.
func Linear(samples []Sample) (Poly, error) {
	return Polynomial(samples, 1)
}

// Quadratic fits y = a + b·x + c·x²; the paper's projection model.
func Quadratic(samples []Sample) (Poly, error) {
	return Polynomial(samples, 2)
}

// RSquared computes the coefficient of determination of p on samples.
// Fits do not carry it: no refit reads it, so it is computed on demand.
//
// ghlint:allocfree
func RSquared(samples []Sample, p Poly) float64 {
	if len(samples) == 0 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		mean += s.Y
	}
	mean /= float64(len(samples))

	var ssRes, ssTot float64
	for _, s := range samples {
		d := s.Y - p.Eval(s.X)
		ssRes += d * d
		t := s.Y - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		// All Y identical: perfect fit iff residuals vanish.
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// solveLinear solves a·x = b with partial pivoting. It mutates its inputs.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	x := make([]float64, len(a))
	if err := solveLinearInto(a, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveLinearInto is solveLinear writing the solution into x (len(a)),
// so hot-path callers (the Accumulator) can reuse buffers. It mutates a
// and b, and may partially write x before detecting a NaN/Inf solution.
//
// ghlint:allocfree
func solveLinearInto(a [][]float64, b, x []float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot: pick the row with the largest |a[row][col]|.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}

	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for c := row + 1; c < n; c++ {
			sum -= a[row][c] * x[c]
		}
		x[row] = sum / a[row][row]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrSingular
		}
	}
	return nil
}

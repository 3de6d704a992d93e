// Package timeseries implements the power predictor of the GreenHetero
// scheduler (paper §IV-B.1): Holt double-exponential smoothing with the
// smoothing parameters (α, β) trained on historical records by minimizing
// squared one-step-ahead prediction error (Eq. 5).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Predictor is the interface the controller consumes: feed observations,
// get one-step-ahead forecasts. Holt (the paper's choice) and HoltWinters
// (the seasonal extension) both implement it; the paper notes "any other
// proven prediction approaches can be integrated into our prediction
// framework" (§IV-B.1).
//
// The controller calls both methods every scheduling epoch, so they are
// annotated allocfree contracts: every in-program implementation is
// statically verified allocation-free.
type Predictor interface {
	// Observe feeds one measured sample into the smoother.
	//
	// ghlint:allocfree
	Observe(o float64)
	// Forecast returns the one-step-ahead prediction.
	//
	// ghlint:allocfree
	Forecast() (float64, error)
}

// Holt is a double-exponential-smoothing predictor:
//
//	level:      Sₜ = α·Oₜ + (1−α)·(Sₜ₋₁ + Bₜ₋₁)   (Eq. 2)
//	trend:      Bₜ = β·(Sₜ − Sₜ₋₁) + (1−β)·Bₜ₋₁   (Eq. 3)
//	prediction: Pₜ₊₁ = Sₜ + Bₜ                      (Eq. 4)
//
// The zero value is not usable; construct with NewHolt.
type Holt struct {
	alpha float64
	beta  float64

	level  float64
	trend  float64
	primed int // number of observations seen
}

var (
	_ Predictor = (*Holt)(nil)
	_ Predictor = (*HoltWinters)(nil)
)

var (
	// ErrBadSmoothing is returned for α or β outside [0, 1].
	ErrBadSmoothing = errors.New("timeseries: smoothing parameter outside [0, 1]")
	// ErrNotPrimed is returned by Forecast before two observations arrive.
	ErrNotPrimed = errors.New("timeseries: predictor needs at least two observations")
	// ErrTooShort is returned by Train for histories shorter than 3 points.
	ErrTooShort = errors.New("timeseries: training history too short")
)

// NewHolt constructs a predictor with fixed smoothing parameters.
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha < 0 || alpha > 1 || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("%w: alpha=%v beta=%v", ErrBadSmoothing, alpha, beta)
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// Observe feeds one observation Oₜ from the Monitor into the smoother.
//
// ghlint:allocfree
func (h *Holt) Observe(o float64) {
	switch h.primed {
	case 0:
		h.level = o
	case 1:
		h.trend = o - h.level
		h.level = o
	default:
		prevLevel := h.level
		h.level = h.alpha*o + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.primed++
}

// Forecast returns the one-step-ahead prediction Pₜ₊₁ = Sₜ + Bₜ.
//
// ghlint:allocfree
func (h *Holt) Forecast() (float64, error) {
	if h.primed < 2 {
		return 0, ErrNotPrimed
	}
	return h.level + h.trend, nil
}

// SSE replays history through a fresh smoother with parameters (α, β) and
// returns the sum of squared one-step-ahead prediction errors ΔD².
func SSE(history []float64, alpha, beta float64) (float64, error) {
	h, err := NewHolt(alpha, beta)
	if err != nil {
		return 0, err
	}
	var sse float64
	for _, o := range history {
		if p, err := h.Forecast(); err == nil {
			d := p - o
			sse += d * d
		}
		h.Observe(o)
	}
	return sse, nil
}

// TrainResult reports the parameters chosen by Train and their error.
type TrainResult struct {
	Alpha float64
	Beta  float64
	SSE   float64
}

// Train fits (α, β) on past records by minimizing ΔD² (Eq. 5). It runs a
// coarse grid search followed by two local refinement passes, which is
// robust against the non-convexity of the SSE surface and cheap at the
// history lengths used per rack (≤ a few thousand points).
func Train(history []float64) (TrainResult, error) {
	if len(history) < 3 {
		return TrainResult{}, fmt.Errorf("%w: %d points", ErrTooShort, len(history))
	}
	best := TrainResult{SSE: math.Inf(1)}
	evaluate := func(a, b float64) {
		sse, err := SSE(history, a, b)
		if err != nil {
			return
		}
		if sse < best.SSE {
			best = TrainResult{Alpha: a, Beta: b, SSE: sse}
		}
	}

	// Coarse pass on a 0.05 grid over [0,1]².
	for a := 0.0; a <= 1.0001; a += 0.05 {
		for b := 0.0; b <= 1.0001; b += 0.05 {
			evaluate(a, b)
		}
	}
	// Two refinement passes around the incumbent.
	step := 0.05
	for pass := 0; pass < 2; pass++ {
		step /= 10
		ca, cb := best.Alpha, best.Beta
		for a := ca - 5*step; a <= ca+5*step; a += step {
			if a < 0 || a > 1 {
				continue
			}
			for b := cb - 5*step; b <= cb+5*step; b += step {
				if b < 0 || b > 1 {
					continue
				}
				evaluate(a, b)
			}
		}
	}
	return best, nil
}

package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// HoltWinters is the additive triple-exponential-smoothing predictor —
// the full method of the paper's reference (Kalekar, "Time series
// forecasting using Holt-Winters exponential smoothing"). The paper's
// prototype uses the double (level+trend) variant; solar generation is
// strongly diurnal, so the seasonal variant is the natural upgrade and
// is offered as an extension:
//
//	level:    Sₜ = α·(Oₜ − Cₜ₋ₘ) + (1−α)·(Sₜ₋₁ + Bₜ₋₁)
//	trend:    Bₜ = β·(Sₜ − Sₜ₋₁) + (1−β)·Bₜ₋₁
//	seasonal: Cₜ = γ·(Oₜ − Sₜ) + (1−γ)·Cₜ₋ₘ
//	forecast: Pₜ₊₁ = Sₜ + Bₜ + Cₜ₊₁₋ₘ
//
// with season length m (96 epochs for a 24-hour day at 15 minutes).
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int

	level    float64
	trend    float64
	seasonal []float64
	primed   int
}

// ErrBadPeriod is returned for season lengths below 2.
var ErrBadPeriod = errors.New("timeseries: season length must be ≥ 2")

// NewHoltWinters constructs the seasonal predictor.
func NewHoltWinters(alpha, beta, gamma float64, period int) (*HoltWinters, error) {
	if alpha < 0 || alpha > 1 || beta < 0 || beta > 1 || gamma < 0 || gamma > 1 {
		return nil, fmt.Errorf("%w: alpha=%v beta=%v gamma=%v", ErrBadSmoothing, alpha, beta, gamma)
	}
	if period < 2 {
		return nil, fmt.Errorf("%w: %d", ErrBadPeriod, period)
	}
	return &HoltWinters{
		alpha:    alpha,
		beta:     beta,
		gamma:    gamma,
		period:   period,
		seasonal: make([]float64, period),
	}, nil
}

// Observe feeds one observation. The first season initializes the
// seasonal indices around the running mean; smoothing begins afterwards.
//
// ghlint:allocfree
func (h *HoltWinters) Observe(o float64) {
	idx := h.primed % h.period
	if h.primed < h.period {
		// Bootstrap: accumulate the first season's raw values; once the
		// season completes, convert to deviations from its mean.
		h.seasonal[idx] = o
		h.level = h.level + (o-h.level)/float64(h.primed+1) // running mean
		h.primed++
		if h.primed == h.period {
			for i := range h.seasonal {
				h.seasonal[i] -= h.level
			}
		}
		return
	}
	prevLevel := h.level
	h.level = h.alpha*(o-h.seasonal[idx]) + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	h.seasonal[idx] = h.gamma*(o-h.level) + (1-h.gamma)*h.seasonal[idx]
	h.primed++
}

// Forecast returns the one-step-ahead seasonal prediction, floored at
// zero for power series (generation cannot be negative).
//
// ghlint:allocfree
func (h *HoltWinters) Forecast() (float64, error) {
	if h.primed < h.period {
		return 0, ErrNotPrimed
	}
	idx := h.primed % h.period
	p := h.level + h.trend + h.seasonal[idx]
	if p < 0 {
		p = 0
	}
	return p, nil
}

// SeasonalSSE replays history through a fresh seasonal smoother and
// returns the sum of squared one-step-ahead errors (skipping the
// bootstrap season).
func SeasonalSSE(history []float64, alpha, beta, gamma float64, period int) (float64, error) {
	h, err := NewHoltWinters(alpha, beta, gamma, period)
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

// SeasonalTrainResult reports TrainSeasonal's chosen parameters.
type SeasonalTrainResult struct {
	Alpha, Beta, Gamma float64
	SSE                float64
}

// TrainSeasonal fits (α, β, γ) on history by coarse grid search plus one
// refinement pass. History must cover at least two full seasons.
func TrainSeasonal(history []float64, period int) (SeasonalTrainResult, error) {
	if period < 2 {
		return SeasonalTrainResult{}, fmt.Errorf("%w: %d", ErrBadPeriod, period)
	}
	if len(history) < 2*period {
		return SeasonalTrainResult{}, fmt.Errorf("%w: %d points for season %d", ErrTooShort, len(history), period)
	}
	best := SeasonalTrainResult{SSE: math.Inf(1)}
	evaluate := func(a, b, g float64) {
		sse, err := SeasonalSSE(history, a, b, g, period)
		if err != nil {
			return
		}
		if sse < best.SSE {
			best = SeasonalTrainResult{Alpha: a, Beta: b, Gamma: g, SSE: sse}
		}
	}
	// Coarse 0.2 grid (3 parameters make a fine grid expensive).
	for a := 0.0; a <= 1.0001; a += 0.2 {
		for b := 0.0; b <= 1.0001; b += 0.2 {
			for g := 0.0; g <= 1.0001; g += 0.2 {
				evaluate(a, b, g)
			}
		}
	}
	// One refinement pass at 0.04 around the incumbent.
	ca, cb, cg := best.Alpha, best.Beta, best.Gamma
	for a := ca - 0.16; a <= ca+0.16; a += 0.04 {
		if a < 0 || a > 1 {
			continue
		}
		for b := cb - 0.16; b <= cb+0.16; b += 0.04 {
			if b < 0 || b > 1 {
				continue
			}
			for g := cg - 0.16; g <= cg+0.16; g += 0.04 {
				if g < 0 || g > 1 {
					continue
				}
				evaluate(a, b, g)
			}
		}
	}
	return best, nil
}

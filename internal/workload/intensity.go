package workload

import (
	"math"

	"greenhetero/internal/server"
)

// Intensity-aware variants of the response surface. Datacenter load is
// not constant: Fig. 6 drives the runtime experiments with a typical
// diurnal rack-power pattern. Intensity i ∈ (0, 1] scales how much of the
// workload's dynamic power range is exercised this epoch:
//
//	peakEff(i) = idle + i·util·(peak − idle)
//	perfMax(i) = perfMax · i^0.3
//
// (lighter load needs less power to saturate, and delivers somewhat less
// absolute throughput). Intensity 1 reduces to the base functions, and
// the shift of peakEff over the day is what makes the paper's runtime
// database updates (Algorithm 1 lines 8–10) worthwhile: projections
// profiled at one intensity drift as the load moves.

// ValidIntensity reports whether i is usable.
//
// ghlint:allocfree
func ValidIntensity(i float64) bool { return i > 0 && i <= 1 }

// Load is one epoch's intensity with its throughput scale i^0.3, so a
// caller that evaluates many surfaces at one intensity pays the Pow once.
type Load struct {
	intensity, scale float64
}

// NewLoad prepares intensity i for evaluation.
func NewLoad(intensity float64) Load {
	return Load{intensity: intensity, scale: math.Pow(intensity, 0.3)}
}

// Plant is the response surface of one (server, workload) pair with its
// load-independent constants — idle power, dynamic range, util, gamma,
// noise and PerfMax — taken once, so evaluating it costs no Pow beyond
// the concave response itself. The package's surface functions are
// wrappers over its methods.
type Plant struct {
	idleW, rangeW, util, gamma, noise, perfMax float64
}

// NewPlant captures the (s, w) response surface.
func NewPlant(s server.Spec, w Workload) Plant {
	return Plant{idleW: s.IdleW, rangeW: s.DynamicRangeW(), util: w.util,
		gamma: w.gamma, noise: w.noise, perfMax: PerfMax(s, w)}
}

// Noise reports the workload's relative measurement noise σ.
//
// ghlint:allocfree
func (p *Plant) Noise() float64 { return p.noise }

// PeakEffW is the effective peak power draw under load l.
//
// ghlint:allocfree
func (p *Plant) PeakEffW(l Load) float64 {
	return p.idleW + l.intensity*p.util*p.rangeW
}

// Perf is the throughput of one server drawing allocated power powerW
// under load l.
//
// ghlint:allocfree
func (p *Plant) Perf(powerW float64, l Load) float64 {
	if !ValidIntensity(l.intensity) || powerW < p.idleW {
		return 0
	}
	max := p.perfMax * l.scale
	if max == 0 {
		return 0
	}
	peakEff := p.PeakEffW(l)
	if powerW >= peakEff {
		return max
	}
	x := (powerW - p.idleW) / (peakEff - p.idleW)
	return max * math.Pow(x, p.gamma)
}

// UsedPowerW is the power one server consumes when allocated powerW
// under load l: zero below idle, capped at the effective peak.
//
// ghlint:allocfree
func (p *Plant) UsedPowerW(powerW float64, l Load) float64 {
	if !ValidIntensity(l.intensity) || powerW < p.idleW {
		return 0
	}
	if peakEff := p.PeakEffW(l); powerW > peakEff {
		return peakEff
	}
	return powerW
}

// PeakEffWAt is PeakEffW under load intensity i.
func PeakEffWAt(s server.Spec, w Workload, intensity float64) float64 {
	p := NewPlant(s, w)
	return p.PeakEffW(NewLoad(intensity))
}

// PerfAt is Perf under load intensity i.
func PerfAt(s server.Spec, w Workload, powerW, intensity float64) float64 {
	p := NewPlant(s, w)
	return p.Perf(powerW, NewLoad(intensity))
}

// UsedPowerWAt is UsedPowerW under load intensity i.
func UsedPowerWAt(s server.Spec, w Workload, powerW, intensity float64) float64 {
	p := NewPlant(s, w)
	return p.UsedPowerW(powerW, NewLoad(intensity))
}

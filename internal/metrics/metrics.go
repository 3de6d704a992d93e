// Package metrics implements the paper's evaluation metrics, chiefly
// Effective Power Utilization (EPU, Eq. 1):
//
//	EPU = Σ P_throughput / Σ P_supply
//
// where P_throughput is the green power actually converted into workload
// throughput and P_supply is the power supplied. Power allocated below a
// server's idle floor (the server cannot start) or beyond the workload's
// effective peak (the server cannot draw it) counts against the policy.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoData is returned by aggregations over empty inputs.
var ErrNoData = errors.New("metrics: no data")

// EPU computes Eq. 1 from the power converted to throughput and the
// total supplied power. Zero supply yields zero EPU (nothing to utilize).
// The result is clamped to [0, 1]: P_throughput can never meaningfully
// exceed supply, and tiny numerical overshoots should not leak out.
func EPU(throughputPowerW, supplyW float64) float64 {
	if supplyW <= 0 {
		return 0
	}
	epu := throughputPowerW / supplyW
	if epu < 0 {
		return 0
	}
	if epu > 1 {
		return 1
	}
	return epu
}

// Allocation is one server group's share of an epoch's power, with the
// power the group's servers actually consumed toward throughput.
type Allocation struct {
	// AllocatedW is the power handed to the group.
	AllocatedW float64
	// UsedW is the power the group converted into throughput
	// (0 when below idle, capped at the workload's effective peak).
	UsedW float64
}

// EpochEPU sums a set of group allocations into one EPU value against
// the supplied power.
func EpochEPU(allocs []Allocation, supplyW float64) float64 {
	var used float64
	for _, a := range allocs {
		used += a.UsedW
	}
	return EPU(used, supplyW)
}

// Normalize divides each value by base, the paper's presentation for
// Figs. 3/9/10/13/14 (results normalized to the Uniform policy).
func Normalize(values []float64, base float64) ([]float64, error) {
	if base == 0 {
		return nil, fmt.Errorf("metrics: normalize by zero base")
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / base
	}
	return out, nil
}

// Mean returns the arithmetic mean.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrNoData
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}

// GeoMean returns the geometric mean; all inputs must be positive.
// Speedup ratios are conventionally aggregated geometrically.
func GeoMean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrNoData
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("metrics: geomean of non-positive value %v", v)
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values))), nil
}

// Summary aggregates a series.
type Summary struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Summarize computes min/max/mean/population-std.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{Min: values[0], Max: values[0], N: len(values)}
	var sum float64
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var varSum float64
	for _, v := range values {
		d := v - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(s.N))
	return s, nil
}

// SpeedupOver returns element-wise a[i]/b[i]; the per-epoch "GreenHetero
// over Uniform" series of Figs. 8(a)/11(a). Pairs where b[i] == 0 yield
// 1 when a[i] is also 0 (both idle) and +Inf otherwise.
func SpeedupOver(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("metrics: speedup length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		switch {
		case b[i] != 0:
			out[i] = a[i] / b[i]
		case a[i] == 0:
			out[i] = 1
		default:
			out[i] = math.Inf(1)
		}
	}
	return out, nil
}

// SLOViolated reports whether a served epoch missed its supply SLO:
// delivered supply below minFrac of the epoch's true demand. Epochs
// with no demand cannot violate. The chaos stress reports count one
// violation per rack·epoch that fails this test (or that the rack did
// not serve at all).
//
// ghlint:units minFrac=frac
func SLOViolated(suppliedW, demandW, minFrac float64) bool {
	return demandW > 0 && suppliedW < minFrac*demandW
}

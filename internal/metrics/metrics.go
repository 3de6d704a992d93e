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

import "errors"

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

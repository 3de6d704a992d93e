// Package cost models utility grid charges for a rack: volumetric energy
// cost plus the peak-demand charge that motivates the paper's grid
// under-provisioning argument (§V-B.4 cites peak grid power at up to
// $13.61/kW, after Goiri et al.'s Parasol). GreenHetero's better power
// utilization lets operators cap the grid feed lower, and this package
// quantifies what that cap is worth.
package cost

import (
	"errors"
	"fmt"
)

// Tariff prices grid consumption.
type Tariff struct {
	// EnergyPerKWh is the volumetric price in $/kWh.
	EnergyPerKWh float64
	// PeakPerKW is the monthly demand charge in $/kW of peak draw.
	PeakPerKW float64
}

// DefaultTariff uses $0.10/kWh energy and the paper's $13.61/kW peak
// demand charge.
func DefaultTariff() Tariff {
	return Tariff{EnergyPerKWh: 0.10, PeakPerKW: 13.61}
}

// Validate checks the tariff for negative prices.
func (t Tariff) Validate() error {
	if t.EnergyPerKWh < 0 || t.PeakPerKW < 0 {
		return fmt.Errorf("%w: %+v", ErrBadTariff, t)
	}
	return nil
}

var (
	// ErrBadTariff is returned for negative prices.
	ErrBadTariff = errors.New("cost: bad tariff")
	// ErrNoSeries is returned for empty grid series.
	ErrNoSeries = errors.New("cost: empty grid power series")
	// ErrBadStep is returned for non-positive step durations.
	ErrBadStep = errors.New("cost: step hours must be positive")
)

// Bill itemizes the grid charges for one billing window.
type Bill struct {
	// EnergyKWh is the total grid energy consumed. The dimension lattice
	// tracks energy, not scale — the kilo prefix is this package's own
	// convention.
	//
	// ghlint:units Wh
	EnergyKWh float64
	// PeakKW is the highest epoch-average grid draw (power; kilo prefix
	// as above).
	//
	// ghlint:units W
	PeakKW float64
	// EnergyCost and PeakCost are the itemized charges; Total sums them.
	EnergyCost float64
	PeakCost   float64
	Total      float64
}

// FromSeries bills a per-epoch grid power series (watts) sampled every
// stepHours hours.
func FromSeries(gridW []float64, stepHours float64, t Tariff) (Bill, error) {
	if err := t.Validate(); err != nil {
		return Bill{}, err
	}
	if len(gridW) == 0 {
		return Bill{}, ErrNoSeries
	}
	if stepHours <= 0 {
		return Bill{}, fmt.Errorf("%w: %v", ErrBadStep, stepHours)
	}
	var b Bill
	for i, w := range gridW {
		if w < 0 {
			return Bill{}, fmt.Errorf("cost: negative grid power %v at epoch %d", w, i)
		}
		b.EnergyKWh += w * stepHours / 1000
		if w/1000 > b.PeakKW {
			b.PeakKW = w / 1000
		}
	}
	b.EnergyCost = b.EnergyKWh * t.EnergyPerKWh
	b.PeakCost = b.PeakKW * t.PeakPerKW
	b.Total = b.EnergyCost + b.PeakCost
	return b, nil
}

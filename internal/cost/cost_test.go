package cost

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFromSeries(t *testing.T) {
	// Four 15-minute epochs: 1000, 500, 0, 1500 W.
	bill, err := FromSeries([]float64{1000, 500, 0, 1500}, 0.25, DefaultTariff())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bill.EnergyKWh-0.75) > 1e-12 {
		t.Errorf("energy = %v kWh, want 0.75", bill.EnergyKWh)
	}
	if bill.PeakKW != 1.5 {
		t.Errorf("peak = %v kW, want 1.5", bill.PeakKW)
	}
	if math.Abs(bill.EnergyCost-0.075) > 1e-12 {
		t.Errorf("energy cost = %v", bill.EnergyCost)
	}
	if math.Abs(bill.PeakCost-1.5*13.61) > 1e-9 {
		t.Errorf("peak cost = %v", bill.PeakCost)
	}
	if math.Abs(bill.Total-(bill.EnergyCost+bill.PeakCost)) > 1e-12 {
		t.Errorf("total = %v", bill.Total)
	}
}

func TestFromSeriesErrors(t *testing.T) {
	if _, err := FromSeries(nil, 0.25, DefaultTariff()); !errors.Is(err, ErrNoSeries) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := FromSeries([]float64{1}, 0, DefaultTariff()); !errors.Is(err, ErrBadStep) {
		t.Errorf("zero step err = %v", err)
	}
	if _, err := FromSeries([]float64{1}, 0.25, Tariff{EnergyPerKWh: -1}); !errors.Is(err, ErrBadTariff) {
		t.Errorf("bad tariff err = %v", err)
	}
	if _, err := FromSeries([]float64{-5}, 0.25, DefaultTariff()); err == nil {
		t.Error("negative power should error")
	}
}

// Property: the bill is monotone — scaling the series up never lowers
// any component.
func TestQuickBillMonotone(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		series := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		k := 1 + float64(scaleRaw)/64
		for i, r := range raw {
			series[i] = float64(r)
			scaled[i] = float64(r) * k
		}
		a, err1 := FromSeries(series, 0.25, DefaultTariff())
		b, err2 := FromSeries(scaled, 0.25, DefaultTariff())
		if err1 != nil || err2 != nil {
			return false
		}
		return b.EnergyKWh >= a.EnergyKWh-1e-9 && b.PeakKW >= a.PeakKW-1e-9 && b.Total >= a.Total-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

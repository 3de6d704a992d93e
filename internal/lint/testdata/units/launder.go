// Regression fixture for the laundering shape a suffix-only unit check
// is blind to: a power value is read into a neutral local
// (`x := b.PeakW` — the suffix dies right there), then crosses a call
// boundary into a helper that adds it to an energy value. Locally the
// helper's `capWh + x` has only one suffixed operand, so a suffix-only
// pass reports nothing; the interprocedural units engine
// (TestUnitsLaunderRegression) flows W through the local and into the
// helper's neutral parameter, and the addition is a dimension mix.
package units

// Bank mirrors internal/battery's suffixed field naming.
type Bank struct {
	CapWh float64
	PeakW float64
}

// addReserve folds a neutral addend into the capacity — the half of the
// bug the old analyzer could see, and didn't.
func addReserve(capWh, x float64) float64 {
	return capWh + x // want "mixes"
}

func launder(b Bank) float64 {
	x := b.PeakW // the W suffix is gone; only flow analysis remembers
	return addReserve(b.CapWh, x)
}

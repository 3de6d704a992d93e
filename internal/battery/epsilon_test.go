package battery

import (
	"math"
	"testing"
	"time"
)

// TestEpsilonRackScaleUnchanged pins the capacity-relative tolerance to
// the historical absolute 1e-9 Wh for every rack-scale bank, so goldens
// and export/restore fixtures recorded before the site-scale fix stay
// bit-identical.
func TestEpsilonRackScaleUnchanged(t *testing.T) {
	for _, capWh := range []float64{100, 1200, 12000, 20000} {
		cfg := DefaultConfig()
		cfg.CapacityWh = capWh
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.epsWh != 1e-9 {
			t.Errorf("capacity %v Wh: epsWh = %v, want historical 1e-9", capWh, b.epsWh)
		}
	}
}

// TestEpsilonSiteScaleLatch is the regression test for the site-scale
// epsilon bug: with an absolute 1e-9 Wh tolerance, AtDoD() can never
// latch on a >= ~12 MWh bank because 1e-9 is below one ULP of the charge
// level, so a one-ULP rounding residue from charge arithmetic defeats
// the comparison forever.
func TestEpsilonSiteScaleLatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityWh = 12e6 // 12 MWh: ULP(1.2e7) ~ 1.9e-9 Wh > 1e-9
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ulp := math.Nextafter(cfg.CapacityWh, math.Inf(1)) - cfg.CapacityWh; ulp <= 1e-9 {
		t.Fatalf("test premise broken: ULP(%v) = %v <= 1e-9", cfg.CapacityWh, ulp)
	}

	// One ULP above the DoD floor.
	b.chargeWh = math.Nextafter(b.floorWh, math.Inf(1))
	if !b.AtDoD() {
		t.Errorf("AtDoD() false at one ULP above the %v Wh floor", b.floorWh)
	}
}

// TestEpsilonSiteScaleFullAfterCharge drains a site-scale bank slightly,
// recharges it past nameplate, and requires the charge to land within
// the capacity-relative tolerance of full.
func TestEpsilonSiteScaleFullAfterCharge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityWh = 24e6
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hour := time.Hour
	if got := b.Discharge(1e6, hour); got != 1e6 {
		t.Fatalf("Discharge = %v, want 1e6", got)
	}
	// Offer far more than the room left; Charge clamps to capacity.
	b.Charge(b.AcceptableChargeW(hour), hour, SourceRenewable)
	if room := cfg.CapacityWh - b.chargeWh; room > b.epsWh {
		t.Errorf("charge %v Wh is %v Wh short of a %v Wh capacity after recharging (tolerance %v)",
			b.chargeWh, room, cfg.CapacityWh, b.epsWh)
	}
}

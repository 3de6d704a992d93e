package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Bank {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{DepthOfDischarge: 0.4, Efficiency: 0.8}},
		{"zero dod", Config{CapacityWh: 100, Efficiency: 0.8}},
		{"dod over 1", Config{CapacityWh: 100, DepthOfDischarge: 1.5, Efficiency: 0.8}},
		{"zero efficiency", Config{CapacityWh: 100, DepthOfDischarge: 0.4}},
		{"efficiency over 1", Config{CapacityWh: 100, DepthOfDischarge: 0.4, Efficiency: 1.2}},
		{"negative cap", Config{CapacityWh: 100, DepthOfDischarge: 0.4, Efficiency: 0.8, MaxChargeW: -1}},
		{"NaN capacity", Config{CapacityWh: math.NaN(), DepthOfDischarge: 0.4, Efficiency: 0.8}},
		{"infinite capacity", Config{CapacityWh: math.Inf(1), DepthOfDischarge: 0.4, Efficiency: 0.8}},
		{"NaN dod", Config{CapacityWh: 100, DepthOfDischarge: math.NaN(), Efficiency: 0.8}},
		{"NaN efficiency", Config{CapacityWh: 100, DepthOfDischarge: 0.4, Efficiency: math.NaN()}},
		{"NaN cap", Config{CapacityWh: 100, DepthOfDischarge: 0.4, Efficiency: 0.8, MaxDischargeW: math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestSetSoCValidation(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	for _, frac := range []float64{-0.1, 1.1, math.NaN()} {
		if err := b.SetSoC(frac); !errors.Is(err, ErrBadConfig) {
			t.Errorf("SetSoC(%v) err = %v, want ErrBadConfig", frac, err)
		}
	}
}

func TestStartsFull(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	if b.ChargeWh() != b.cfg.CapacityWh {
		t.Errorf("charge = %v Wh, want capacity %v", b.ChargeWh(), b.cfg.CapacityWh)
	}
	if got := b.SoC(); got != 1 {
		t.Errorf("SoC = %v, want 1", got)
	}
	if b.AtDoD() {
		t.Error("full bank should not be at DoD")
	}
}

func TestDischargeToDoDFloor(t *testing.T) {
	// 12 kWh bank, DoD 40 % → 4.8 kWh usable. At 1200 W that is 4 h.
	b := mustNew(t, DefaultConfig())
	var delivered float64
	hours := 0
	for !b.AtDoD() && hours < 100 {
		delivered += b.Discharge(1200, time.Hour)
		hours++
	}
	if hours != 4 {
		t.Errorf("drained in %d hours, want 4", hours)
	}
	if math.Abs(b.ChargeWh()-7200) > 1e-6 {
		t.Errorf("floor charge = %v, want 7200", b.ChargeWh())
	}
	if b.Cycles() != 1 {
		t.Errorf("cycles = %d, want 1", b.Cycles())
	}
	// Further discharge yields nothing.
	if got := b.Discharge(1000, time.Hour); got != 0 {
		t.Errorf("discharge at floor = %v, want 0", got)
	}
}

func TestPartialLastDischarge(t *testing.T) {
	// Request more than the remaining usable energy: delivery is capped.
	b := mustNew(t, DefaultConfig())
	got := b.Discharge(10000, time.Hour) // usable 4800 Wh → max 4800 W for 1h
	if math.Abs(got-4800) > 1e-6 {
		t.Errorf("delivered %v W, want 4800", got)
	}
	if !b.AtDoD() {
		t.Error("bank should be at DoD")
	}
}

func TestChargeEfficiency(t *testing.T) {
	cfg := DefaultConfig()
	b := mustNew(t, cfg)
	b.Discharge(4800, time.Hour) // to floor: 7200 Wh stored
	used := b.Charge(1000, time.Hour, SourceRenewable)
	if math.Abs(used-1000) > 1e-9 {
		t.Errorf("consumed %v, want 1000", used)
	}
	if math.Abs(b.ChargeWh()-(7200+800)) > 1e-6 { // 80 % of 1000 Wh stored
		t.Errorf("charge = %v, want 8000", b.ChargeWh())
	}
}

func TestChargeCapAtFull(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	if got := b.Charge(1000, time.Hour, SourceRenewable); got != 0 {
		t.Errorf("charging a full bank consumed %v, want 0", got)
	}
	// Drain 800 Wh of storage room, then overcharge: consumption limited
	// to room/efficiency.
	b.Discharge(800, time.Hour)
	got := b.Charge(5000, time.Hour, SourceGrid)
	if math.Abs(got-1000) > 1e-6 { // 800 Wh room / 0.8 eff
		t.Errorf("consumed %v, want 1000", got)
	}
	if room := b.cfg.CapacityWh - b.chargeWh; room > b.epsWh {
		t.Errorf("bank %v Wh short of full after overcharge", room)
	}
}

func TestPowerCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDischargeW = 500
	cfg.MaxChargeW = 300
	b := mustNew(t, cfg)
	if got := b.Discharge(1000, time.Hour); got != 500 {
		t.Errorf("discharge = %v, want cap 500", got)
	}
	if got := b.Charge(1000, time.Hour, SourceRenewable); got != 300 {
		t.Errorf("charge = %v, want cap 300", got)
	}
}

func TestCycleCounting(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	for cycle := 1; cycle <= 3; cycle++ {
		b.Discharge(1e9, time.Hour) // slam to floor
		if b.Cycles() != cycle {
			t.Fatalf("cycles = %d, want %d", b.Cycles(), cycle)
		}
		// Lingering at the floor must not double-count.
		b.Discharge(100, time.Hour)
		if b.Cycles() != cycle {
			t.Fatalf("cycles double-counted at floor: %d", b.Cycles())
		}
		b.Charge(1e9, time.Hour, SourceGrid)
	}
	discharged, charged, gridCharged := b.Totals()
	if discharged <= 0 || charged <= 0 || gridCharged <= 0 {
		t.Errorf("totals = %v %v %v, want all positive", discharged, charged, gridCharged)
	}
	if gridCharged > charged {
		t.Errorf("grid share %v exceeds total charged %v", gridCharged, charged)
	}
}

func TestAvailableAndAcceptable(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	if got := b.AvailableDischargeW(0); got != 0 {
		t.Errorf("zero duration discharge = %v", got)
	}
	if got := b.AcceptableChargeW(-time.Hour); got != 0 {
		t.Errorf("negative duration charge = %v", got)
	}
	if got := b.AvailableDischargeW(2 * time.Hour); math.Abs(got-2400) > 1e-6 {
		t.Errorf("available over 2h = %v, want 2400", got)
	}
}

func TestNoopRequests(t *testing.T) {
	b := mustNew(t, DefaultConfig())
	if got := b.Discharge(-5, time.Hour); got != 0 {
		t.Errorf("negative discharge = %v", got)
	}
	if got := b.Charge(0, time.Hour, SourceGrid); got != 0 {
		t.Errorf("zero charge = %v", got)
	}
}

func TestSourceString(t *testing.T) {
	if SourceRenewable.String() != "renewable" || SourceGrid.String() != "grid" {
		t.Error("Source.String mismatch")
	}
	if Source(9).String() != "Source(9)" {
		t.Errorf("unknown = %v", Source(9))
	}
}

// Property: stored energy always stays within [floor, capacity] across
// arbitrary interleavings of charge and discharge.
func TestQuickEnergyBounds(t *testing.T) {
	cfg := DefaultConfig()
	floor := cfg.CapacityWh * (1 - cfg.DepthOfDischarge)
	f := func(ops []int16) bool {
		b, err := New(cfg)
		if err != nil {
			return false
		}
		for _, op := range ops {
			p := float64(op) * 10
			if p >= 0 {
				b.Discharge(p, 15*time.Minute)
			} else {
				b.Charge(-p, 15*time.Minute, SourceRenewable)
			}
			if b.ChargeWh() < floor-1e-6 || b.ChargeWh() > cfg.CapacityWh+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: energy conservation — delivered discharge Wh equals the drop
// in stored energy; consumed charge Wh × efficiency equals the rise.
func TestQuickEnergyConservation(t *testing.T) {
	cfg := DefaultConfig()
	f := func(reqRaw uint16, charge bool) bool {
		b, err := New(cfg)
		if err != nil {
			return false
		}
		b.Discharge(2000, time.Hour) // leave room both ways
		before := b.ChargeWh()
		req := float64(reqRaw)
		if charge {
			used := b.Charge(req, 30*time.Minute, SourceRenewable)
			gained := b.ChargeWh() - before
			return math.Abs(gained-used*cfg.Efficiency*0.5) < 1e-6
		}
		got := b.Discharge(req, 30*time.Minute)
		lost := before - b.ChargeWh()
		return math.Abs(lost-got*0.5) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDischargeChargeCycle(b *testing.B) {
	bank, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Discharge(1200, 15*time.Minute)
		bank.Charge(1200, 15*time.Minute, SourceRenewable)
	}
}

func TestLifetimeYears(t *testing.T) {
	// Two cycles per day (the Low-trace regime, §V-B.3): 1300 rated
	// cycles last ≈ 1.78 years.
	got := LifetimeYears(2, 24*time.Hour)
	if math.Abs(got-float64(RatedCycles)/(2*365)) > 1e-9 {
		t.Errorf("LifetimeYears(2/day) = %v", got)
	}
	// One cycle per day ≈ 3.56 years.
	if a, b := LifetimeYears(1, 24*time.Hour), LifetimeYears(2, 24*time.Hour); a <= b {
		t.Errorf("fewer cycles should last longer: %v vs %v", a, b)
	}
	if !math.IsInf(LifetimeYears(0, time.Hour), 1) {
		t.Error("zero cycles should be +Inf")
	}
	if LifetimeYears(5, 0) != 0 {
		t.Error("zero window should be 0")
	}
}

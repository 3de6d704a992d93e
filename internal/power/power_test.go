package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustSelect(t *testing.T, in Inputs) Plan {
	t.Helper()
	p, err := Select(in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSelectValidation(t *testing.T) {
	bad := []Inputs{
		{RenewableW: -1},
		{DemandW: -1},
		{BatteryDischargeW: -1},
		{BatteryChargeW: -1},
		{GridBudgetW: -1},
	}
	for _, in := range bad {
		if _, err := Select(in); !errors.Is(err, ErrBadInputs) {
			t.Errorf("Select(%+v) err = %v, want ErrBadInputs", in, err)
		}
	}
}

func TestCaseASurplusChargesBattery(t *testing.T) {
	p := mustSelect(t, Inputs{
		RenewableW: 1500, DemandW: 1000,
		BatteryChargeW: 300, BatteryDischargeW: 999, GridBudgetW: 1000,
	})
	if p.Case != CaseA {
		t.Fatalf("case = %v, want A", p.Case)
	}
	if p.LoadRenewableW != 1000 || p.LoadBatteryW != 0 || p.LoadGridW != 0 {
		t.Errorf("load mix = %+v", p)
	}
	if p.ChargeRenewableW != 300 || p.ChargeGridW != 0 {
		t.Errorf("charge mix = %+v", p)
	}
	if p.CurtailedW != 200 {
		t.Errorf("curtailed = %v, want 200", p.CurtailedW)
	}
	if p.SupplyW() != 1000 {
		t.Errorf("supply = %v, want 1000", p.SupplyW())
	}
}

func TestCaseBBatterySupplements(t *testing.T) {
	p := mustSelect(t, Inputs{
		RenewableW: 600, DemandW: 1000,
		BatteryDischargeW: 800, BatteryChargeW: 500, GridBudgetW: 1000,
	})
	if p.Case != CaseB {
		t.Fatalf("case = %v, want B", p.Case)
	}
	if p.LoadRenewableW != 600 || p.LoadBatteryW != 400 || p.LoadGridW != 0 {
		t.Errorf("load mix = %+v", p)
	}
	if grid := p.LoadGridW + p.ChargeGridW; grid != 0 {
		t.Errorf("grid = %v, want 0", grid)
	}
	if p.SupplyW() != 1000 {
		t.Errorf("supply = %v", p.SupplyW())
	}
}

func TestCaseBGridTakesOverAtDoD(t *testing.T) {
	// Battery can only deliver 100 W: grid covers the remaining 300.
	// No grid charging while the bank is still discharging — a bank
	// cannot do both in one epoch.
	p := mustSelect(t, Inputs{
		RenewableW: 600, DemandW: 1000,
		BatteryDischargeW: 100, BatteryChargeW: 2000, GridBudgetW: 1000,
	})
	if p.Case != CaseB {
		t.Fatalf("case = %v, want B", p.Case)
	}
	if p.LoadBatteryW != 100 || p.LoadGridW != 300 {
		t.Errorf("load mix = %+v", p)
	}
	if p.ChargeGridW != 0 {
		t.Errorf("grid charge = %v, want 0 while discharging", p.ChargeGridW)
	}
	if p.ChargeRenewableW != 0 {
		t.Error("only one source may charge the battery")
	}
}

func TestCaseBGridChargesOnceBatteryEmpty(t *testing.T) {
	// Bank fully drained: the grid covers the shortfall and recharges
	// the bank with the leftover budget.
	p := mustSelect(t, Inputs{
		RenewableW: 600, DemandW: 1000,
		BatteryDischargeW: 0, BatteryChargeW: 2000, GridBudgetW: 1000,
	})
	if p.LoadGridW != 400 {
		t.Errorf("grid load = %v, want 400", p.LoadGridW)
	}
	if p.ChargeGridW != 600 { // 1000 budget − 400 load
		t.Errorf("grid charge = %v, want 600", p.ChargeGridW)
	}
}

func TestDischargeLockout(t *testing.T) {
	// Recovery latch active: the bank must not discharge even though it
	// has headroom; grid covers and recharges.
	p := mustSelect(t, Inputs{
		RenewableW: 0, DemandW: 800,
		BatteryDischargeW: 500, BatteryChargeW: 400, GridBudgetW: 1500,
		DischargeLockout: true,
	})
	if p.LoadBatteryW != 0 {
		t.Errorf("battery load = %v during lockout, want 0", p.LoadBatteryW)
	}
	if p.LoadGridW != 800 {
		t.Errorf("grid load = %v, want 800", p.LoadGridW)
	}
	if p.ChargeGridW != 400 { // min(1500−800, 400)
		t.Errorf("grid charge = %v, want 400", p.ChargeGridW)
	}
	// Case A charging is unaffected by the lockout.
	p = mustSelect(t, Inputs{
		RenewableW: 1000, DemandW: 500, BatteryChargeW: 300,
		DischargeLockout: true,
	})
	if p.ChargeRenewableW != 300 {
		t.Errorf("renewable charge = %v under lockout, want 300", p.ChargeRenewableW)
	}
}

func TestCaseCBatteryAlone(t *testing.T) {
	p := mustSelect(t, Inputs{
		RenewableW: 0, DemandW: 900,
		BatteryDischargeW: 2000, BatteryChargeW: 100, GridBudgetW: 1000,
	})
	if p.Case != CaseC {
		t.Fatalf("case = %v, want C", p.Case)
	}
	if p.LoadBatteryW != 900 || p.LoadGridW != 0 || p.LoadRenewableW != 0 {
		t.Errorf("load mix = %+v", p)
	}
}

func TestCaseCGridBudgetCapsSupply(t *testing.T) {
	// Battery drained, demand 1500, grid budget only 1000: supply is
	// capped — the scarcity regime where PAR matters.
	p := mustSelect(t, Inputs{
		RenewableW: 0, DemandW: 1500,
		BatteryDischargeW: 0, BatteryChargeW: 500, GridBudgetW: 1000,
	})
	if p.Case != CaseC {
		t.Fatalf("case = %v, want C", p.Case)
	}
	if p.LoadGridW != 1000 {
		t.Errorf("grid load = %v, want 1000 (budget)", p.LoadGridW)
	}
	if p.SupplyW() != 1000 {
		t.Errorf("supply = %v, want capped 1000", p.SupplyW())
	}
	if p.ChargeGridW != 0 {
		t.Errorf("no budget left to charge, got %v", p.ChargeGridW)
	}
}

func TestRenewableFloorForcesCaseC(t *testing.T) {
	p := mustSelect(t, Inputs{
		RenewableW: 3, DemandW: 100,
		BatteryDischargeW: 500, GridBudgetW: 0,
	})
	if p.Case != CaseC {
		t.Fatalf("case = %v, want C below inverter floor", p.Case)
	}
	if p.CurtailedW != 3 {
		t.Errorf("curtailed = %v, want 3", p.CurtailedW)
	}
}

func TestCaseAZeroDemand(t *testing.T) {
	p := mustSelect(t, Inputs{
		RenewableW: 500, DemandW: 0, BatteryChargeW: 200,
	})
	if p.Case != CaseA || p.SupplyW() != 0 {
		t.Errorf("plan = %+v", p)
	}
	if p.ChargeRenewableW != 200 || p.CurtailedW != 300 {
		t.Errorf("charge/curtail = %v/%v", p.ChargeRenewableW, p.CurtailedW)
	}
}

func TestCaseString(t *testing.T) {
	if CaseA.String() != "A" || CaseB.String() != "B" || CaseC.String() != "C" {
		t.Error("Case.String mismatch")
	}
	if Case(9).String() != "Case(9)" {
		t.Errorf("unknown = %v", Case(9))
	}
}

// Property: the plan never violates physical constraints — supply ≤
// demand, battery draw within limits, grid within budget, single charging
// source, no negative flows, and renewable accounting balances.
func TestQuickPlanInvariants(t *testing.T) {
	f := func(renRaw, demRaw, disRaw, chgRaw, gridRaw uint16) bool {
		in := Inputs{
			RenewableW:        float64(renRaw),
			DemandW:           float64(demRaw),
			BatteryDischargeW: float64(disRaw),
			BatteryChargeW:    float64(chgRaw),
			GridBudgetW:       float64(gridRaw),
		}
		p, err := Select(in)
		if err != nil {
			return false
		}
		const eps = 1e-9
		if p.LoadRenewableW < 0 || p.LoadBatteryW < 0 || p.LoadGridW < 0 ||
			p.ChargeRenewableW < 0 || p.ChargeGridW < 0 || p.CurtailedW < 0 {
			return false
		}
		if p.SupplyW() > in.DemandW+eps {
			return false
		}
		if p.LoadBatteryW > in.BatteryDischargeW+eps {
			return false
		}
		if p.ChargeRenewableW+p.ChargeGridW > in.BatteryChargeW+eps {
			return false
		}
		if p.LoadGridW+p.ChargeGridW > in.GridBudgetW+eps {
			return false
		}
		if p.ChargeRenewableW > 0 && p.ChargeGridW > 0 {
			return false // single charging source
		}
		// Renewable energy conservation.
		if p.LoadRenewableW+p.ChargeRenewableW+p.CurtailedW > in.RenewableW+eps {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: supply only falls short of demand when every source is
// genuinely exhausted.
func TestQuickSupplyShortfallJustified(t *testing.T) {
	f := func(renRaw, demRaw, disRaw, gridRaw uint16) bool {
		in := Inputs{
			RenewableW:        float64(renRaw),
			DemandW:           float64(demRaw),
			BatteryDischargeW: float64(disRaw),
			GridBudgetW:       float64(gridRaw),
		}
		p, err := Select(in)
		if err != nil {
			return false
		}
		short := in.DemandW - p.SupplyW()
		if short <= 1e-9 {
			return true
		}
		// Shortfall implies grid budget fully used on load and battery
		// at its discharge limit (renewable below floor contributes 0).
		gridExhausted := math.Abs(p.LoadGridW-in.GridBudgetW) < 1e-9
		batteryExhausted := math.Abs(p.LoadBatteryW-in.BatteryDischargeW) < 1e-9
		return gridExhausted && batteryExhausted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

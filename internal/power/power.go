// Package power implements the power-source selection of the GreenHetero
// scheduler (paper §IV-B.1, Fig. 6): each epoch, given the predicted
// renewable supply, the predicted rack demand, the battery state, and the
// grid budget, it plans which sources power the load and which source (at
// most one) charges the battery.
//
//	Case A — renewable ≥ demand: renewable carries the load alone and
//	         the surplus charges the battery.
//	Case B — 0 < renewable < demand: the battery discharges to cover the
//	         shortfall; once it hits its DoD floor the grid takes over
//	         the shortfall and recharges the battery.
//	Case C — renewable unavailable: the battery carries the load alone;
//	         at the DoD floor the grid takes over and recharges.
//
// The grid is always the last resort and is capped by a budget (the
// paper's 1000 W default, swept in Fig. 12), so the planned supply can
// fall short of demand — that scarcity is precisely when the power
// allocation ratio matters.
package power

import (
	"errors"
	"fmt"
)

// Case classifies an epoch's supply regime (Fig. 6).
type Case int

const (
	// CaseA means renewable fully covers demand.
	CaseA Case = iota + 1
	// CaseB means renewable is positive but short; storage supplements.
	CaseB
	// CaseC means renewable is unavailable; storage or grid carries all.
	CaseC
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseA:
		return "A"
	case CaseB:
		return "B"
	case CaseC:
		return "C"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// renewableFloorW is the threshold below which renewable generation is
// treated as unavailable (Case C): PV inverters cannot hold a useful
// output below a few watts.
const renewableFloorW = 5.0

// Inputs gathers everything the planner needs for one epoch. Powers are
// epoch-average watts.
type Inputs struct {
	// RenewableW is the (predicted) renewable generation.
	RenewableW float64
	// DemandW is the (predicted) rack power demand.
	DemandW float64
	// BatteryDischargeW is the maximum power the battery can deliver
	// this epoch without crossing its DoD floor.
	BatteryDischargeW float64
	// BatteryChargeW is the maximum source-side power the battery can
	// absorb this epoch.
	BatteryChargeW float64
	// GridBudgetW caps total grid draw (load + charging).
	GridBudgetW float64
	// DischargeLockout forbids battery discharge this epoch. The
	// controller latches it after the bank reaches its DoD floor and
	// holds it until the charge recovers, so the bank cleanly recharges
	// ("the grid or the renewable power will charge the batteries to
	// prepare for future power shortages", §IV-B.1) instead of
	// oscillating at the floor.
	DischargeLockout bool
}

// ErrBadInputs is returned for negative inputs.
var ErrBadInputs = errors.New("power: negative input")

// Plan is the source mix for one epoch.
type Plan struct {
	// Case is the supply regime that produced this plan.
	Case Case
	// LoadRenewableW, LoadBatteryW, and LoadGridW power the servers.
	LoadRenewableW float64
	LoadBatteryW   float64
	LoadGridW      float64
	// ChargeRenewableW and ChargeGridW charge the battery; per the
	// paper at most one of them is nonzero.
	ChargeRenewableW float64
	ChargeGridW      float64
	// CurtailedW is renewable generation with nowhere to go
	// (load satisfied, battery full).
	CurtailedW float64
}

// SupplyW is the total power delivered to the servers.
//
// ghlint:allocfree
func (p Plan) SupplyW() float64 {
	return p.LoadRenewableW + p.LoadBatteryW + p.LoadGridW
}

// Select plans the epoch's source mix. It is a pure function of its
// inputs: the simulator applies the plan to the battery afterwards.
//
// ghlint:allocfree
func Select(in Inputs) (Plan, error) {
	if in.RenewableW < 0 || in.DemandW < 0 || in.BatteryDischargeW < 0 ||
		in.BatteryChargeW < 0 || in.GridBudgetW < 0 {
		return Plan{}, fmt.Errorf("%w: %+v", ErrBadInputs, in)
	}

	var p Plan
	switch {
	case in.RenewableW < renewableFloorW:
		p.Case = CaseC
	case in.RenewableW >= in.DemandW:
		p.Case = CaseA
	default:
		p.Case = CaseB
	}

	switch p.Case {
	case CaseA:
		p.LoadRenewableW = in.DemandW
		surplus := in.RenewableW - in.DemandW
		p.ChargeRenewableW = min(surplus, in.BatteryChargeW)
		p.CurtailedW = surplus - p.ChargeRenewableW

	case CaseB:
		p.LoadRenewableW = in.RenewableW
		shortfall := in.DemandW - in.RenewableW
		p.LoadBatteryW = min(shortfall, dischargeable(in))
		shortfall -= p.LoadBatteryW
		if shortfall > 0 {
			// Battery unavailable mid-shortfall: grid covers the rest
			// and recharges the battery with leftover budget. The bank
			// cannot charge and discharge in the same epoch.
			p.LoadGridW = min(shortfall, in.GridBudgetW)
			if p.LoadBatteryW == 0 {
				p.ChargeGridW = min(in.GridBudgetW-p.LoadGridW, in.BatteryChargeW)
			}
		}

	case CaseC:
		p.CurtailedW = in.RenewableW // below the inverter floor
		p.LoadBatteryW = min(in.DemandW, dischargeable(in))
		shortfall := in.DemandW - p.LoadBatteryW
		if shortfall > 0 {
			p.LoadGridW = min(shortfall, in.GridBudgetW)
			if p.LoadBatteryW == 0 {
				p.ChargeGridW = min(in.GridBudgetW-p.LoadGridW, in.BatteryChargeW)
			}
		}
	}
	return p, nil
}

// dischargeable is the battery power available for the load this epoch,
// honoring the recovery lockout.
//
// ghlint:allocfree
func dischargeable(in Inputs) float64 {
	if in.DischargeLockout {
		return 0
	}
	return in.BatteryDischargeW
}

// ghlint:allocfree
// ghlint:units a=W b=W result=W
func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

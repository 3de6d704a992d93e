// Package enforcer implements the GreenHetero Enforcer (paper §IV-A):
// the Power Source Controller (PSC), which carries out source switching
// and battery charge/discharge for a planned source mix, and the Server
// Power Controller (SPC), which turns per-server power budgets into DVFS
// power-state instructions (§IV-B.4). The SPC is the live actuator's
// step; the controller checks every supplied epoch's PAR with
// ValidatePAR, the check the SPC runs first.
package enforcer

import (
	"errors"
	"fmt"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/power"
	"greenhetero/internal/server"
)

// Instruction is one SPC decision: which power state a server group's
// members should enter.
type Instruction struct {
	// GroupIndex identifies the rack group the instruction targets.
	GroupIndex int
	// ServerID is the group's server configuration.
	ServerID string
	// TargetW is the per-server power budget that produced the state.
	TargetW float64
	// State is the chosen DVFS/sleep state.
	State server.PowerState
}

var (
	// ErrFractionMismatch is returned when the PAR vector length does
	// not match the rack's groups.
	ErrFractionMismatch = errors.New("enforcer: fraction count does not match rack groups")
	// ErrBadFraction is returned for fractions outside [0, 1] or sums
	// above 1.
	ErrBadFraction = errors.New("enforcer: bad PAR fraction")
)

// ValidatePAR checks a PAR vector against a rack of numGroups groups:
// one fraction per group, each in [0, 1], summing to at most 1. The
// controller runs it on every supplied epoch, and SPC.Instructions runs
// it before mapping budgets to states.
//
// ghlint:allocfree
// ghlint:units fractions=frac
func ValidatePAR(fractions []float64, numGroups int) error {
	if len(fractions) != numGroups {
		return fmt.Errorf("%w: %d fractions, %d groups", ErrFractionMismatch, len(fractions), numGroups)
	}
	var sum float64
	for i, f := range fractions {
		if f < 0 || f > 1 {
			return fmt.Errorf("%w: fractions[%d] = %v", ErrBadFraction, i, f)
		}
		sum += f
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("%w: sum %v > 1", ErrBadFraction, sum)
	}
	return nil
}

// SPC is the Server Power Controller. The simulator scores the hidden
// truth at the continuous per-server budget and never reads DVFS
// states, so the SPC is the live actuator's step: it runs where a
// decision is pushed to real servers.
type SPC struct{}

// Instructions maps a PAR vector over a rack into per-group power states:
// group i receives fractions[i]·supplyW, split evenly among its servers,
// and each server is set to the state selected by the paper's linear
// power→state mapping.
//
// ghlint:units fractions=frac supplyW=W
func (SPC) Instructions(rack *server.Rack, fractions []float64, supplyW float64) ([]Instruction, error) {
	if err := ValidatePAR(fractions, rack.NumGroups()); err != nil {
		return nil, err
	}
	out := make([]Instruction, len(fractions))
	for i := range out {
		g := rack.Group(i)
		perServer := fractions[i] * supplyW / float64(g.Count)
		out[i] = Instruction{
			GroupIndex: i,
			ServerID:   g.Spec.ID,
			TargetW:    perServer,
			State:      rack.StateForPower(i, perServer),
		}
	}
	return out, nil
}

// Execution records what the PSC actually did in one epoch, which can
// fall short of the plan when the battery state moved since prediction.
type Execution struct {
	// Plan echoes the input plan.
	Plan power.Plan
	// BatteryToLoadW is the battery power actually delivered.
	BatteryToLoadW float64
	// BatteryChargedW is the source-side charging power actually
	// absorbed, from ChargeSource.
	BatteryChargedW float64
	// ChargeSource says which source charged the battery (zero when
	// BatteryChargedW is 0).
	ChargeSource battery.Source
	// GridW is the total grid power actually drawn.
	GridW float64
	// SupplyW is the power actually delivered to the servers.
	SupplyW float64
}

// PSC is the Power Source Controller. It owns the switching between
// renewable, battery, and grid feeds for one rack. The bank may be a
// rack-local *battery.Bank or a per-epoch *battery.Lease carved from a
// shared site bank.
type PSC struct {
	bank battery.Store
}

// NewPSC wires a PSC to its rack battery store.
func NewPSC(bank battery.Store) (*PSC, error) {
	if bank == nil {
		return nil, errors.New("enforcer: nil battery bank")
	}
	return &PSC{bank: bank}, nil
}

// Apply executes a source plan for one epoch against the live battery,
// re-capping flows against the bank's actual state. At most one source
// charges the battery (the plan guarantees it; Apply preserves it).
//
// ghlint:allocfree
func (p *PSC) Apply(plan power.Plan, epoch time.Duration) (Execution, error) {
	if epoch <= 0 {
		return Execution{}, fmt.Errorf("enforcer: epoch %v", epoch)
	}
	exec := Execution{Plan: plan}

	exec.BatteryToLoadW = p.bank.Discharge(plan.LoadBatteryW, epoch)

	switch {
	case plan.ChargeRenewableW > 0:
		exec.BatteryChargedW = p.bank.Charge(plan.ChargeRenewableW, epoch, battery.SourceRenewable)
		if exec.BatteryChargedW > 0 {
			exec.ChargeSource = battery.SourceRenewable
		}
	case plan.ChargeGridW > 0:
		exec.BatteryChargedW = p.bank.Charge(plan.ChargeGridW, epoch, battery.SourceGrid)
		if exec.BatteryChargedW > 0 {
			exec.ChargeSource = battery.SourceGrid
		}
	}

	gridCharge := 0.0
	if exec.ChargeSource == battery.SourceGrid {
		gridCharge = exec.BatteryChargedW
	}
	exec.GridW = plan.LoadGridW + gridCharge
	exec.SupplyW = plan.LoadRenewableW + exec.BatteryToLoadW + plan.LoadGridW
	return exec, nil
}

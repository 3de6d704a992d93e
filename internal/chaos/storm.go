package chaos

import (
	"fmt"

	"greenhetero/internal/cluster"
	"greenhetero/internal/runner"
)

// StormConfig wires a chaos schedule onto a fleet run.
type StormConfig struct {
	// Name labels the stress report.
	Name string
	// Fleet is the underlying fleet configuration; Run installs the
	// chaos engine as its Disturber and (with a WAL rack) the harness
	// as its Checkpointer.
	Fleet cluster.Config
	// Chaos is the storm schedule. Racks and Epochs are filled from
	// Fleet when zero.
	Chaos Config
	// SLOSupplyFrac is the report's SLO floor (default 0.5: an epoch
	// supplied below half its demand violates).
	SLOSupplyFrac float64
	// SnapshotEvery is the WAL harness snapshot cadence in commits
	// (default 8).
	SnapshotEvery int
}

// Run executes the storm: expand the schedule, run the fleet in
// degraded mode under it, and derive the stress report. Deterministic
// end to end — same seed, same report bytes, at any parallelism.
func Run(sc StormConfig) (*cluster.FleetResult, *Report, error) {
	if sc.SLOSupplyFrac == 0 {
		sc.SLOSupplyFrac = 0.5
	}
	if sc.SLOSupplyFrac < 0 || sc.SLOSupplyFrac > 1 {
		return nil, nil, fmt.Errorf("chaos: SLO supply fraction %v", sc.SLOSupplyFrac)
	}
	if sc.SnapshotEvery == 0 {
		sc.SnapshotEvery = 8
	}
	if sc.Chaos.Racks == 0 {
		sc.Chaos.Racks = len(sc.Fleet.Racks)
	}
	if sc.Chaos.Epochs == 0 {
		sc.Chaos.Epochs = sc.Fleet.Epochs
	}
	if sc.Chaos.Racks != len(sc.Fleet.Racks) {
		return nil, nil, fmt.Errorf("chaos: schedule sized for %d racks, fleet has %d", sc.Chaos.Racks, len(sc.Fleet.Racks))
	}
	if sc.Chaos.Epochs != sc.Fleet.Epochs {
		return nil, nil, fmt.Errorf("chaos: schedule sized for %d epochs, fleet runs %d", sc.Chaos.Epochs, sc.Fleet.Epochs)
	}
	eng, err := NewEngine(sc.Chaos)
	if err != nil {
		return nil, nil, err
	}
	cfg := sc.Fleet
	cfg.Disturber = eng
	var h *Harness
	if sc.Chaos.WALRack >= 0 {
		h, err = NewHarness(sc.Chaos.WALRack, runner.DeriveSeed(sc.Chaos.Seed, "chaos/walfs"), sc.SnapshotEvery, eng.DaemonArm())
		if err != nil {
			return nil, nil, err
		}
		cfg.Checkpointer = h
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, buildReport(sc, res, eng, h), nil
}

// Degraded-mode fleet coordination: the types that let a Fleet keep
// allocating when racks misbehave instead of aborting the epoch.
//
// A Disturber (the chaos engine) writes a per-epoch effect vector —
// crashed racks, agent partitions, PV derates, demand surges, grid and
// battery shocks — and the Fleet absorbs it: a rack whose step fails is
// quarantined under a per-rack circuit breaker (internal/breaker, the
// same one that guards telemetry agents), its share of PV/battery/grid
// is redistributed by the live allocator from the next epoch simply by
// its absence from the bid vector, and its rejoin is tracked with a
// recovery time. A
// Checkpointer composes the WAL layer in: one rack's durable state is
// committed after every served epoch, and a commit that dies at a
// CrashFS crashpoint forces the rack through recovery before it may
// serve again.

package cluster

import (
	"greenhetero/internal/breaker"
	"greenhetero/internal/sim"
)

// defaultRackThreshold is the consecutive failed epochs that quarantine
// a rack when Config.Breaker leaves the threshold zero.
const defaultRackThreshold = 2

// Disturbance is one epoch's effect vector, written by a Disturber
// before the epoch runs. Reset gives the all-clear state; the slices
// are sized to the fleet and reused every epoch.
type Disturbance struct {
	// Down marks racks that are crashed or inside an outage window this
	// epoch: they do not bid, do not step, and count as failures toward
	// their breaker.
	Down []bool
	// Absent marks racks that have not started yet (fleet_gen startup
	// patterns): skipped silently, with no breaker or SLO bookkeeping.
	Absent []bool
	// Partitioned marks racks whose agent link is severed: the
	// coordinator cannot collect their bid, so they keep stepping under
	// their last granted allocation, reserved off the top of the epoch's
	// supply before the allocator splits the remainder.
	Partitioned []bool
	// PVScaleFrac derates each rack's delivered PV after the split
	// (cloud-bank weather fronts). The allocator prices clear-sky
	// supply — the derate lands as forecast error, exactly as a real
	// front beats a day-ahead forecast.
	//
	// ghlint:units frac
	PVScaleFrac []float64
	// IntensityScale multiplies each rack's demand intensity pattern
	// (flash-crowd workload surges).
	IntensityScale []float64
	// GridBudgetScaleFrac scales the site grid budget this epoch (grid
	// price spikes answered with demand response).
	//
	// ghlint:units frac
	GridBudgetScaleFrac float64
	// BatteryCapacityFrac is the site bank's remaining capacity as a
	// fraction of nameplate (battery aging). Must be non-increasing over
	// epochs; the Fleet applies the delta to the shared bank via Fade.
	//
	// ghlint:units frac
	BatteryCapacityFrac float64
}

// NewDisturbance sizes an all-clear effect vector for n racks.
func NewDisturbance(n int) *Disturbance {
	d := &Disturbance{
		Down:           make([]bool, n),
		Absent:         make([]bool, n),
		Partitioned:    make([]bool, n),
		PVScaleFrac:    make([]float64, n),
		IntensityScale: make([]float64, n),
	}
	d.Reset()
	return d
}

// Reset restores the all-clear state so the vector can be reused.
func (d *Disturbance) Reset() {
	for i := range d.Down {
		d.Down[i] = false
		d.Absent[i] = false
		d.Partitioned[i] = false
		d.PVScaleFrac[i] = 1
		d.IntensityScale[i] = 1
	}
	d.GridBudgetScaleFrac = 1
	d.BatteryCapacityFrac = 1
}

// Disturber injects per-epoch disturbances into a fleet run. Disturb is
// called serially at the top of every epoch with d freshly Reset; it
// must be deterministic (seeded) — the chaos engine in internal/chaos
// is the canonical implementation.
type Disturber interface {
	Disturb(epoch int, d *Disturbance)
}

// Checkpointer persists one rack's controller state through the WAL
// layer, composing daemon crash/recovery into a fleet run. Commit is
// called after each of the rack's served epochs, on the worker that
// stepped the rack and concurrently with other racks' steps, so it may
// touch only that rack's session and the Checkpointer's own state. An
// error (e.g. a CrashFS crashpoint tearing the write) counts as a
// breaker failure, and the Fleet calls Recover — serially, between
// barriers — before the rack's next attempt so the rack resumes from
// durable state, not from the in-memory session the crash notionally
// destroyed.
type Checkpointer interface {
	// Rack is the index of the checkpointed rack.
	Rack() int
	// Commit durably records the rack's state after epoch. It runs
	// inside the step barrier (see above).
	Commit(epoch int, s *sim.Session) error
	// Recover restores s from durable state and fast-forwards it to the
	// current epoch (SkipEpoch), called once before the rack's next
	// attempt after a failed Commit.
	Recover(epoch int, s *sim.Session) error
}

// Quarantine records one breaker episode: first failed epoch, the
// successful probe epoch that rejoined the rack (-1 if the run ended
// first), and the recovery time between them.
type Quarantine struct {
	FromEpoch   int
	RejoinEpoch int
	// RecoveryEpochs is RejoinEpoch - FromEpoch (-1 while open).
	RecoveryEpochs int
}

// RackHealth aggregates one rack's degraded-mode history over a run.
// Every epoch lands in exactly one of Served/Failed/Quarantined/Absent.
type RackHealth struct {
	Name string
	// ServedEpochs is epochs the rack stepped and recorded a result
	// (including epochs served under a held allocation while
	// partitioned).
	ServedEpochs int
	// FailedEpochs is failed attempts: down windows, bid/step errors,
	// and failed half-open probes.
	FailedEpochs int
	// QuarantinedEpochs is epochs skipped inside breaker cooldowns.
	QuarantinedEpochs int
	// AbsentEpochs is pre-startup epochs (fleet_gen patterns).
	AbsentEpochs int
	// PartitionedEpochs counts served epochs under a held allocation
	// (subset of ServedEpochs).
	PartitionedEpochs int
	// Recoveries counts successful WAL recoveries (checkpointed rack
	// only).
	Recoveries int
	// Quarantines lists the rack's breaker episodes in order.
	Quarantines []Quarantine
}

// rackCtl is the coordinator's per-rack degraded-mode state: breaker,
// quarantine episode, last-known bid, and the last granted allocation a
// partitioned rack keeps stepping under.
type rackCtl struct {
	brk breaker.Breaker
	// downSince is the first failed epoch of the current episode, -1
	// when healthy.
	downSince int

	// lastBidW is the rack's most recent successful demand bid — what
	// the redistribution accounting prices a missing rack at.
	lastBidW float64
	haveBid  bool

	// nextBidW and nextBidErr are the demand bid the rack's worker
	// computed right after its last successful step. bidFresh says the
	// session has not changed since: each step task clears it, and so
	// does a WAL recovery.
	nextBidW   float64
	nextBidErr error
	bidFresh   bool

	// heldPVW and heldGridW are the last granted allocation, held by a
	// partitioned rack and reserved off the top of the split.
	heldPVW   float64
	heldGridW float64

	health RackHealth
}

// fail charges the rack's breaker with a failed epoch e and opens a
// quarantine episode at e unless one is open.
func (c *rackCtl) fail(e int) {
	c.brk.Fail()
	if c.downSince < 0 {
		c.downSince = e
	}
}

// per-epoch rack modes, assigned serially before the parallel barrier.
type rackMode uint8

const (
	modeServe   rackMode = iota // bid, receive a split, step
	modeHeld                    // partitioned: step under the held allocation
	modeFail                    // down or errored: a failed attempt
	modeCooling                 // quarantined, inside the breaker cooldown
	modeAbsent                  // not started yet (fleet_gen startup)
)

// stepOutcome is one rack's slot in the step barrier, written only by
// the worker that stepped the rack.
type stepOutcome struct {
	er  sim.EpochResult
	err error
	// commitErr is the checkpointed rack's Checkpointer.Commit error.
	commitErr error
}

package chaos

import (
	"fmt"

	"greenhetero/internal/sim"
	"greenhetero/internal/wal"
)

// Harness implements cluster.Checkpointer with sim.Journal on a
// crash-injecting filesystem: after every served epoch the rack's
// session is committed through the journal. A daemon_crash event arms a
// CrashFS crashpoint inside a commit; the torn write surfaces as a
// commit error, the fleet's breaker takes the rack down, and Recover
// reboots the filesystem, reopens the journal and restores the newest
// durable state — the in-memory session the crash notionally destroyed
// is rewound to what actually survived, then fast-forwarded to the
// fleet clock.
type Harness struct {
	rack    int
	fs      *wal.CrashFS
	journal *sim.Journal
	armAt   map[int]int
	// down is set by a failed commit and cleared by Recover.
	down bool

	crashes    int
	recoveries int
}

// NewHarness opens a journal on a fresh crash-injecting filesystem for
// the given rack. armAt maps epochs to crashpoint offsets (see
// Engine.DaemonArm); snapEvery is the snapshot cadence in commits.
func NewHarness(rack int, seed int64, snapEvery int, armAt map[int]int) (*Harness, error) {
	fs := wal.NewCrashFS(seed)
	j, _, err := sim.OpenJournal(fs, snapEvery, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return &Harness{rack: rack, fs: fs, journal: j, armAt: armAt}, nil
}

// Rack implements cluster.Checkpointer.
func (h *Harness) Rack() int { return h.rack }

// Crashes and Recoveries report the daemon's crash/recovery counts for
// the stress report.
func (h *Harness) Crashes() int    { return h.crashes }
func (h *Harness) Recoveries() int { return h.recoveries }

// Commit implements cluster.Checkpointer: make epoch's state durable.
// If a daemon_crash event is scheduled for this epoch, the crashpoint
// is armed first, so the commit itself tears.
func (h *Harness) Commit(epoch int, s *sim.Session) error {
	if h.down {
		return fmt.Errorf("chaos: rack %d wal is down (unrecovered crash)", h.rack)
	}
	if k, ok := h.armAt[epoch]; ok {
		h.fs.SetCrashAt(h.fs.Ops() + k)
	}
	if err := h.journal.Commit(s, nil, nil); err != nil {
		// The daemon is gone; Recover restarts it.
		h.crashes++
		h.down = true
		return fmt.Errorf("chaos: commit rack %d epoch %d: %w", h.rack, epoch, err)
	}
	return nil
}

// Recover implements cluster.Checkpointer: restart the daemon, restore
// the newest durable state, and fast-forward the session to the fleet
// clock. Epochs that were stepped but never durable are rewound — they
// were already charged to the rack's breaker as failures.
func (h *Harness) Recover(epoch int, s *sim.Session) error {
	h.fs.Recover()
	rec, err := h.journal.Reopen()
	if err != nil {
		return fmt.Errorf("chaos: reopen rack %d journal: %w", h.rack, err)
	}
	h.down = false
	if rec.State != nil {
		if err := s.RestoreState(rec.State); err != nil {
			return fmt.Errorf("chaos: restore rack %d: %w", h.rack, err)
		}
	}
	for s.Epoch() < epoch {
		s.SkipEpoch()
	}
	h.recoveries++
	return nil
}

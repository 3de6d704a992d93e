// Durable state: the daemon's WAL integration. With a StateDir (or an
// injected wal.FS) configured, the session is made durable through
// sim.Journal, the one protocol it shares with the chaos harness: every
// epoch commits the session's full state together with that epoch's
// result, and every SnapshotEvery-th commit is an atomic snapshot that
// also carries the history ring and per-agent health. New writes a
// checkpoint and so does Stop.
//
// Recovery restores the newest durable state and rebuilds the history
// from the snapshot's ring plus the results of the records after it. It
// never re-executes an epoch. The state's fingerprint (policy, workload,
// seed, rack, solar trace) is what rejects a state dir written for a
// different scenario.
package daemon

import (
	"encoding/json"
	"fmt"

	"greenhetero/internal/sim"
	"greenhetero/internal/telemetry"
)

// HealthRestorer is the optional restore face of a HealthSource — a
// *telemetry.Collector implements it. When the configured HealthSource
// does too, recovered checkpoints re-seed per-agent breaker health.
type HealthRestorer interface {
	RestoreHealth([]telemetry.AgentHealth) error
}

// snapshotData is the daemon's payload on a snapshot: the retained
// epoch history and per-agent Monitor health. Log records carry the
// epoch's sim.EpochResult instead.
type snapshotData struct {
	History []sim.EpochResult       `json:"history"`
	Agents  []telemetry.AgentHealth `json:"agents,omitempty"`
}

// recoverHistory rebuilds the history ring from the journal's payloads
// and re-seeds agent health from the snapshot. New prefixes its errors
// with "daemon: recover:".
func recoverHistory(rec sim.JournalRecovery, limit int, health HealthSource) ([]sim.EpochResult, error) {
	var history []sim.EpochResult
	if rec.Snapshot != nil {
		var sd snapshotData
		if err := json.Unmarshal(rec.Snapshot, &sd); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
		history = sd.History
		if hr, ok := health.(HealthRestorer); ok && len(sd.Agents) > 0 {
			if err := hr.RestoreHealth(sd.Agents); err != nil {
				return nil, err
			}
		}
	}
	for i, raw := range rec.Tail {
		var er sim.EpochResult
		if err := json.Unmarshal(raw, &er); err != nil {
			return nil, fmt.Errorf("decode epoch result %d of the log tail: %w", i, err)
		}
		history = appendTrimmed(history, er, limit)
	}
	return history, nil
}

// appendTrimmed appends to the history ring, enforcing the limit.
func appendTrimmed(history []sim.EpochResult, er sim.EpochResult, limit int) []sim.EpochResult {
	history = append(history, er)
	if over := len(history) - limit; over > 0 {
		history = append(history[:0:0], history[over:]...)
	}
	return history
}

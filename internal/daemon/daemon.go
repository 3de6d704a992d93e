// Package daemon runs the GreenHetero controller as a long-lived service
// with an HTTP introspection API — the operational form a rack controller
// takes in production (the paper's controller runs continuously at the
// rack PDU). One scheduling epoch executes per wall-clock tick, and the
// API exposes the live decision state:
//
//	GET /healthz   liveness
//	GET /status    last epoch's decision + aggregates
//	GET /history   recent epochs (ring buffer)
//	GET /db        the performance-power database snapshot
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"greenhetero/internal/sim"
	"greenhetero/internal/telemetry"
	"greenhetero/internal/wal"
)

// HealthSource exposes per-agent Monitor health for /status — typically
// a *telemetry.Collector.
type HealthSource interface {
	Health() []telemetry.AgentHealth
}

// Config assembles a daemon.
type Config struct {
	// Session is the stepwise simulation (or, in a real deployment, a
	// session wrapping live telemetry).
	Session *sim.Session
	// Tick is the wall-clock interval per scheduling epoch. Simulated
	// time is accelerated: a 15-minute epoch can tick every second.
	Tick time.Duration
	// HistoryLimit bounds the retained epoch ring (default 1024).
	HistoryLimit int
	// Health optionally surfaces the Monitor's per-agent health (breaker
	// state, stale flags) in /status.
	Health HealthSource
	// StateDir, when set, makes the daemon's state durable: each epoch's
	// full session state is committed to a write-ahead log under this
	// directory, and a daemon restarted over the same directory resumes
	// the session exactly where it stopped (see state.go).
	StateDir string
	// SnapshotEvery is the checkpoint cadence in committed epochs
	// (default 32). A snapshot compacts the WAL, bounding disk use and
	// the log tail recovery reads.
	SnapshotEvery int
	// FS overrides the durable-state filesystem; used by tests to inject
	// wal.CrashFS. Takes precedence over StateDir.
	FS wal.FS
	// Logf receives recovery and durability warnings (default log.Printf).
	Logf func(format string, args ...any)
}

// ErrBadConfig is returned by New for invalid configurations.
var ErrBadConfig = errors.New("daemon: bad config")

// Daemon is the running service. Create with New, then Start; Stop
// shuts the scheduler loop down and waits for it.
type Daemon struct {
	tick   time.Duration
	limit  int
	health HealthSource

	// Durable-state plane, immutable after New. journal is nil when no
	// StateDir/FS is configured; recovered reports whether New resumed
	// from existing durable state.
	journal   *sim.Journal
	recovered bool
	logf      func(format string, args ...any)

	// mu guards the session as well as the daemon's own fields: the
	// session's internals (battery bank, predictors, epoch counter) have
	// no locking of their own, so the loop steps it under the write lock
	// and handlers read live session state under the read lock. The
	// guardedby annotations make ghlint re-prove that discipline on every
	// build — the PR 3 race (session stepped between Unlock and re-Lock)
	// is exactly what they reject.
	mu sync.RWMutex
	// ghlint:guardedby mu
	session *sim.Session
	// ghlint:guardedby mu
	history []sim.EpochResult
	// ghlint:guardedby mu
	lastErr error
	// ghlint:guardedby mu
	started bool
	// ghlint:guardedby mu
	stopping bool
	// walErr latches the first storage failure. Once a commit fails,
	// stepping further would advance state that can never be recovered,
	// so the scheduler halts (the HTTP API stays up and reports the
	// error).
	// ghlint:guardedby mu
	walErr error
	// ghlint:guardedby mu
	journalClosed bool

	stop chan struct{}
	done chan struct{}
}

// New validates cfg and builds a stopped daemon. With durable state
// configured it opens (or creates) the WAL, restores the newest durable
// state into the session, and writes a fresh checkpoint so the resumed
// position is immediately durable.
func New(cfg Config) (*Daemon, error) {
	if cfg.Session == nil {
		return nil, fmt.Errorf("%w: nil session", ErrBadConfig)
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("%w: tick %v", ErrBadConfig, cfg.Tick)
	}
	if cfg.HistoryLimit == 0 {
		cfg.HistoryLimit = 1024
	}
	if cfg.HistoryLimit < 1 {
		return nil, fmt.Errorf("%w: history limit %d", ErrBadConfig, cfg.HistoryLimit)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("%w: snapshot cadence %d", ErrBadConfig, cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 32
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}

	fsys := cfg.FS
	if fsys == nil && cfg.StateDir != "" {
		dirFS, err := wal.NewDirFS(cfg.StateDir)
		if err != nil {
			return nil, fmt.Errorf("daemon: open state dir: %w", err)
		}
		fsys = dirFS
	}

	var (
		journal   *sim.Journal
		history   []sim.EpochResult
		recovered bool
	)
	if fsys != nil {
		j, rec, err := sim.OpenJournal(fsys, cfg.SnapshotEvery, logf)
		if err != nil {
			return nil, fmt.Errorf("daemon: open state: %w", err)
		}
		journal = j
		if rec.State != nil {
			err := cfg.Session.RestoreState(rec.State)
			if err == nil {
				history, err = recoverHistory(rec, cfg.HistoryLimit, cfg.Health)
			}
			if err != nil {
				_ = journal.Close()
				return nil, fmt.Errorf("daemon: recover: %w", err)
			}
			recovered = true
			logf("daemon: recovered durable state: session at epoch %d (snapshot epoch %d + %d log records)",
				cfg.Session.Epoch(), journal.LastSnapshotEpoch(), len(rec.Tail))
		}
	}

	d := &Daemon{
		session:   cfg.Session,
		tick:      cfg.Tick,
		limit:     cfg.HistoryLimit,
		health:    cfg.Health,
		journal:   journal,
		recovered: recovered,
		logf:      logf,
		history:   history,
		stop:      make(chan struct{}), // ghlint:unbounded close-only shutdown signal; Stop closes it, run only selects on it
		done:      make(chan struct{}), // ghlint:unbounded close-only exit signal; run closes it, Stop blocks until the close
	}
	if journal != nil {
		// Checkpoint immediately: a fresh dir gets its identity snapshot
		// (so a later mismatched scenario fails fast), and a recovered one
		// compacts the log tail away.
		d.mu.Lock()
		err := d.checkpointLocked()
		d.mu.Unlock()
		if err != nil {
			_ = journal.Close()
			return nil, fmt.Errorf("daemon: initial checkpoint: %w", err)
		}
	}
	return d, nil
}

// Start launches the scheduler loop. It may be called once; a stopped
// daemon cannot be restarted.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopping {
		return errors.New("daemon: already stopped")
	}
	if d.started {
		return errors.New("daemon: already started")
	}
	d.started = true
	go d.loop()
	return nil
}

// Stop signals the loop and waits for it to exit. Safe to call in any
// state: before Start it simply marks the daemon stopped, and repeated
// calls are no-ops, so `defer d.Stop()` composes with error paths that
// never reach Start. With durable state configured, Stop writes a final
// checkpoint (unless the store already failed) and closes the WAL.
func (d *Daemon) Stop() {
	d.mu.Lock()
	wasStarted := d.started
	if !d.stopping {
		d.stopping = true
		close(d.stop)
	}
	d.mu.Unlock()
	if wasStarted {
		<-d.done
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.journal == nil || d.journalClosed {
		return
	}
	d.journalClosed = true
	if d.walErr == nil {
		if err := d.checkpointLocked(); err != nil {
			d.logf("daemon: final checkpoint failed: %v", err)
		}
	}
	if err := d.journal.Close(); err != nil {
		d.logf("daemon: closing wal: %v", err)
	}
}

func (d *Daemon) loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := d.StepEpoch(); err != nil {
				// Storage failure: the write-ahead contract is broken, so
				// the scheduler halts rather than advance unrecoverable
				// state. The HTTP API stays up and reports the error.
				d.logf("daemon: scheduler halted: %v", err)
				return
			}
		case <-d.stop:
			return
		}
	}
}

// StepEpoch executes one scheduling epoch and commits it. It is the
// loop's body, exported so tests (and the crash harness) can drive
// epochs without wall-clock ticks. The returned error is nil for
// session-level epoch failures (those are recorded in /status and the
// daemon keeps ticking) and non-nil only for durable-storage failures,
// which halt the scheduler.
func (d *Daemon) StepEpoch() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.walErr != nil {
		return d.walErr
	}
	return d.stepLocked()
}

// stepLocked steps the session and commits the epoch.
// ghlint:holds d.mu
func (d *Daemon) stepLocked() error {
	// Step mutates the session in place, so it runs under the write lock;
	// every handler read of session state holds the read lock and
	// therefore observes a quiesced session.
	er, err := d.session.Step()
	if err != nil {
		// Record and keep ticking: a transient failure (e.g. a dead
		// sensor during training) must not kill the rack controller.
		// Nothing is committed: after a crash the session resumes from
		// the last committed state and steps forward from there.
		d.lastErr = err
		return nil
	}
	d.lastErr = nil
	d.history = appendTrimmed(d.history, er, d.limit)
	if d.journal != nil {
		if err := d.journal.Commit(d.session, er, d.snapshotDataLocked); err != nil {
			return d.failStoreLocked(fmt.Errorf("daemon: commit epoch %d: %w", er.Epoch, err))
		}
	}
	return nil
}

// checkpointLocked writes an atomic full-state snapshot and compacts
// the WAL behind it.
// ghlint:holds d.mu
func (d *Daemon) checkpointLocked() error {
	if err := d.journal.Checkpoint(d.session, d.snapshotDataLocked()); err != nil {
		return d.failStoreLocked(fmt.Errorf("daemon: checkpoint: %w", err))
	}
	return nil
}

// snapshotDataLocked is the daemon's snapshot payload.
// ghlint:holds d.mu
func (d *Daemon) snapshotDataLocked() any {
	sd := snapshotData{History: d.history}
	if d.health != nil {
		sd.Agents = d.health.Health()
	}
	return sd
}

// failStoreLocked latches the first storage failure and returns it.
// ghlint:holds d.mu
func (d *Daemon) failStoreLocked(err error) error {
	if d.walErr == nil {
		d.walErr = err
	}
	return d.walErr
}

// Recovered reports whether New resumed from existing durable state.
func (d *Daemon) Recovered() bool { return d.recovered }

// LastCheckpointEpoch returns the epoch covered by the latest snapshot,
// or -1 if none exists (including when durable state is disabled).
func (d *Daemon) LastCheckpointEpoch() int {
	if d.journal == nil {
		return -1
	}
	return d.journal.LastSnapshotEpoch()
}

// History returns a copy of the retained epoch results.
func (d *Daemon) History() []sim.EpochResult {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]sim.EpochResult(nil), d.history...)
}

// status is the /status document.
type status struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Epochs counts retained history entries; SessionEpoch is the
	// session's own live epoch counter.
	Epochs       int     `json:"epochs"`
	SessionEpoch int     `json:"sessionEpoch"`
	BatterySoC   float64 `json:"batterySoC"`
	Cycles       int     `json:"batteryCycles"`
	DBEntries    int     `json:"dbEntries"`
	// Durable-state plane: whether this daemon resumed from an existing
	// state dir, the epoch covered by the latest checkpoint (-1 when
	// durable state is disabled or no checkpoint exists), and the live
	// WAL segment count.
	Recovered           bool                    `json:"recovered"`
	LastCheckpointEpoch int                     `json:"lastCheckpointEpoch"`
	WALSegments         int                     `json:"walSegments"`
	Agents              []telemetry.AgentHealth `json:"agents,omitempty"`
	LastError           string                  `json:"lastError,omitempty"`
	Last                *sim.EpochResult        `json:"last,omitempty"`
}

// Handler returns the HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte("ok\n")); err != nil {
			return
		}
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		d.mu.RLock()
		st := status{
			Policy:              d.session.Policy(),
			Workload:            d.session.WorkloadLabel(),
			Epochs:              len(d.history),
			SessionEpoch:        d.session.Epoch(),
			BatterySoC:          d.session.Bank().SoC(),
			Cycles:              d.session.Bank().Cycles(),
			DBEntries:           d.session.DB().Len(),
			Recovered:           d.recovered,
			LastCheckpointEpoch: d.LastCheckpointEpoch(),
		}
		if d.journal != nil {
			st.WALSegments = d.journal.Segments()
		}
		if d.lastErr != nil {
			st.LastError = d.lastErr.Error()
		}
		if d.walErr != nil {
			st.LastError = d.walErr.Error()
		}
		if n := len(d.history); n > 0 {
			last := d.history[n-1]
			st.Last = &last
		}
		d.mu.RUnlock()
		// The health source carries its own locking.
		if d.health != nil {
			st.Agents = d.health.Health()
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /history", func(w http.ResponseWriter, r *http.Request) {
		d.mu.RLock()
		out := append([]sim.EpochResult(nil), d.history...)
		d.mu.RUnlock()
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /db", func(w http.ResponseWriter, r *http.Request) {
		// Snapshot under the read lock (so the dump is epoch-consistent),
		// then write outside it: a slow client must not stall the loop.
		var buf bytes.Buffer
		d.mu.RLock()
		err := d.session.DB().Save(&buf)
		d.mu.RUnlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

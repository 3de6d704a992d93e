package sim

import (
	"encoding/json"
	"fmt"

	"greenhetero/internal/wal"
)

// journalSchema versions the journal's one record format. Schema 1 was
// the retired replay protocol (intent and epoch records re-executed on
// recovery); a store it wrote is refused, never decoded as state.
const journalSchema = 2

// recState types a journal log record. Types 1 and 2 were the replay
// protocol's intent and epoch records.
const recState byte = 3

// journalEntry is written by every commit, log record and snapshot
// alike: the session's full state plus the caller's optional payload.
type journalEntry struct {
	Schema int    `json:"schema"`
	State  *State `json:"state"`
	Data   any    `json:"data,omitempty"`
}

// journalFrame decodes a journalEntry, deferring the state so only the
// newest one is ever parsed.
type journalFrame struct {
	Schema int             `json:"schema"`
	State  json.RawMessage `json:"state"`
	Data   json.RawMessage `json:"data"`
}

// Journal is the one durability protocol for a Session on a wal.Store:
//
//   - every commit writes the session's full State;
//   - the journal's first commit, and every snapshotEvery-th after it,
//     is an atomic snapshot that compacts the log;
//   - recovery hands back the newest durable state and never
//     re-executes an epoch.
//
// Callers may attach a payload to each commit (the daemon's epoch
// result on log records, its history ring on snapshots); OpenJournal
// and Reopen return the payloads that survived, so the caller can
// rebuild its own view alongside the restored session.
// Segments and LastSnapshotEpoch may run concurrently with a commit;
// nothing else may.
type Journal struct {
	fs    wal.FS
	every int
	logf  func(string, ...any)
	store *wal.Store
	// n counts commits since the last snapshot, modulo every; zero
	// means the next commit is a snapshot.
	n int
}

// JournalRecovery is what OpenJournal or Reopen salvaged.
type JournalRecovery struct {
	// State is the newest durable state, nil when the store held none.
	State *State
	// Snapshot is the payload of the newest surviving snapshot.
	Snapshot json.RawMessage
	// Tail holds the payloads of the log records committed after that
	// snapshot, oldest first.
	Tail []json.RawMessage
}

// OpenJournal opens (or creates) the store on fsys with a snapshot
// every snapshotEvery commits. logf receives the store's recovery
// warnings; nil discards them.
func OpenJournal(fsys wal.FS, snapshotEvery int, logf func(string, ...any)) (*Journal, JournalRecovery, error) {
	if snapshotEvery < 1 {
		return nil, JournalRecovery{}, fmt.Errorf("sim: journal snapshot cadence %d", snapshotEvery)
	}
	j := &Journal{fs: fsys, every: snapshotEvery, logf: logf}
	rec, err := j.Reopen()
	if err != nil {
		return nil, JournalRecovery{}, err
	}
	return j, rec, nil
}

// Reopen salvages the store after a failed commit (or a simulated
// reboot) and returns what survived. The snapshot cadence carries on
// where it was.
func (j *Journal) Reopen() (JournalRecovery, error) {
	if j.store != nil {
		_ = j.store.Close()
	}
	store, rec, err := wal.Open(j.fs, j.logf)
	if err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
	}
	out, err := newest(rec)
	if err != nil {
		_ = store.Close()
		return JournalRecovery{}, err
	}
	j.store = store
	return out, nil
}

// newest decodes the recovered snapshot and log tail; the last state in
// commit order wins.
func newest(rec wal.Recovered) (JournalRecovery, error) {
	var out JournalRecovery
	var raw json.RawMessage
	if rec.Snapshot != nil {
		f, err := decodeFrame(rec.Snapshot)
		if err != nil {
			return out, fmt.Errorf("sim: journal snapshot (epoch %d): %w", rec.SnapshotEpoch, err)
		}
		raw, out.Snapshot = f.State, f.Data
	}
	for _, r := range rec.Records {
		if r.Type != recState {
			return out, fmt.Errorf("sim: journal record seq %d: %w: type %d is not a state record (types 1 and 2 are the retired replay protocol's intent and epoch records)",
				r.Seq, ErrBadState, r.Type)
		}
		f, err := decodeFrame(r.Data)
		if err != nil {
			return out, fmt.Errorf("sim: journal record seq %d: %w", r.Seq, err)
		}
		raw = f.State
		out.Tail = append(out.Tail, f.Data)
	}
	if raw == nil {
		return out, nil
	}
	out.State = new(State)
	if err := json.Unmarshal(raw, out.State); err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w: decode state: %v", ErrBadState, err)
	}
	return out, nil
}

// decodeFrame parses one entry and checks its schema before anything
// else is trusted.
func decodeFrame(b []byte) (journalFrame, error) {
	var f journalFrame
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	switch {
	case f.Schema == 1:
		return f, fmt.Errorf("%w: schema 1 is the retired replay protocol's format, which this build no longer reads; start from an empty state dir", ErrBadState)
	case f.Schema != journalSchema:
		return f, fmt.Errorf("%w: schema %d, want %d", ErrBadState, f.Schema, journalSchema)
	case f.State == nil:
		return f, fmt.Errorf("%w: entry has no state", ErrBadState)
	}
	return f, nil
}

// Commit makes s's current state durable, as a snapshot when the
// cadence says so and as a log record otherwise. rec is the log
// record's payload; snap, called only for a snapshot, supplies its
// payload. Either may be nil. A failed commit closes the store: every
// later commit fails until Reopen.
func (j *Journal) Commit(s *Session, rec any, snap func() any) error {
	snapshot := j.n == 0
	j.n = (j.n + 1) % j.every
	if !snapshot {
		return j.write(s, false, rec)
	}
	var data any
	if snap != nil {
		data = snap()
	}
	return j.write(s, true, data)
}

// Checkpoint commits s's state as a snapshot now and restarts the
// cadence from it.
func (j *Journal) Checkpoint(s *Session, data any) error {
	j.n = 1 % j.every
	return j.write(s, true, data)
}

func (j *Journal) write(s *Session, snapshot bool, data any) error {
	st, err := s.ExportState()
	if err != nil {
		return err
	}
	b, err := json.Marshal(journalEntry{Schema: journalSchema, State: st, Data: data})
	if err != nil {
		return fmt.Errorf("sim: journal: encode: %w", err)
	}
	if snapshot {
		err = j.store.SaveSnapshot(st.Epoch, b)
	} else {
		err = j.store.Append(recState, b)
	}
	if err != nil {
		// A failed write leaves the store's files in an unknown state;
		// only a reopen, which salvages them, may write again.
		_ = j.store.Close()
		return fmt.Errorf("sim: journal: %w", err)
	}
	return nil
}

// Segments reports how many live log segments the store spans.
func (j *Journal) Segments() int { return j.store.Segments() }

// LastSnapshotEpoch reports the epoch of the newest snapshot, -1 when
// none exists.
func (j *Journal) LastSnapshotEpoch() int { return j.store.LastSnapshotEpoch() }

// Close seals the store. The journal cannot commit afterwards.
func (j *Journal) Close() error { return j.store.Close() }

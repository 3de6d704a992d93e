package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"greenhetero/internal/wal"
)

// journalRun steps a fresh session and commits each epoch through a
// journal opened on fsys, stopping at the first failed commit. It
// returns the exported state JSON of the last commit that returned nil
// (nil when none did).
func journalRun(t *testing.T, fsys wal.FS, epochs, every int) (acked []byte, err error) {
	t.Helper()
	s, err := NewSession(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(fsys, every, nil)
	if err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		st, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(s, nil, nil); err != nil {
			return acked, err
		}
		acked = b
	}
	return acked, j.Close()
}

// TestJournalCrashAtEveryCrashpoint is the protocol's durability claim,
// proved once for every caller: crash at each storage op of an 8-epoch
// run with a snapshot every 2 commits, reboot, reopen, and the restored
// state is byte-identical to the export of the last commit that
// returned nil. (POSIX lets a failed write land whole anyway; this
// seeded schedule never produces that, so any mismatch is a protocol
// bug.)
func TestJournalCrashAtEveryCrashpoint(t *testing.T) {
	const epochs, every, seed = 8, 2, 21

	base := wal.NewCrashFS(seed)
	if _, err := journalRun(t, base, epochs, every); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	ops := base.Ops()
	if ops < 40 {
		t.Fatalf("baseline touched only %d storage ops", ops)
	}
	t.Logf("baseline: %d storage ops, %d epochs", ops, epochs)

	for k := 1; k <= ops; k++ {
		t.Run(fmt.Sprintf("crashpoint-%d", k), func(t *testing.T) {
			fsys := wal.NewCrashFS(seed)
			fsys.SetCrashAt(k)
			acked, _ := journalRun(t, fsys, epochs, every)
			if !fsys.Crashed() {
				t.Fatalf("crashpoint %d was never reached", k)
			}
			fsys.Recover()
			_, rec, err := OpenJournal(fsys, every, nil)
			if err != nil {
				t.Fatalf("reopen after crashpoint %d: %v", k, err)
			}
			var got []byte
			if rec.State != nil {
				if got, err = json.Marshal(rec.State); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, acked) {
				t.Errorf("crashpoint %d: restored state (%d bytes) differs from the last acknowledged commit (%d bytes)",
					k, len(got), len(acked))
			}
		})
	}
}

// TestJournalCadence pins the snapshot rule: the first commit is a
// snapshot, then every every-th; Checkpoint restarts the count.
func TestJournalCadence(t *testing.T) {
	s, err := NewSession(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(wal.NewCrashFS(1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []int
	commit := func() {
		t.Helper()
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		before := j.LastSnapshotEpoch()
		if err := j.Commit(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		if j.LastSnapshotEpoch() != before {
			snaps = append(snaps, s.Epoch())
		}
	}
	for i := 0; i < 4; i++ {
		commit()
	}
	if err := j.Checkpoint(s, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		commit()
	}
	if want := "[1 4 7]"; fmt.Sprint(snaps) != want {
		t.Errorf("snapshot commits at epochs %v, want %s", snaps, want)
	}
	if j.LastSnapshotEpoch() != 7 {
		t.Errorf("last snapshot at epoch %d, want 7", j.LastSnapshotEpoch())
	}
}

// TestJournalOpsPerCommit pins the storage cost of a log commit: a
// Write and a Sync, plus a Create and a SyncDir for the commit that
// opens the segment after a snapshot. With a snapshot every 300
// commits, all 249 log records land in one segment.
func TestJournalOpsPerCommit(t *testing.T) {
	const commits, every = 250, 300
	s, err := NewSession(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	fsys := wal.NewCrashFS(1)
	j, _, err := OpenJournal(fsys, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= commits; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		before := fsys.Ops()
		if err := j.Commit(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			continue // the journal's first commit is a snapshot
		}
		want := 2
		if i == 2 {
			want = 4
		}
		if got := fsys.Ops() - before; got != want {
			t.Fatalf("log commit %d (record %d after the snapshot) cost %d storage ops, want %d", i, i-1, got, want)
		}
	}
	if got := j.Segments(); got != 1 {
		t.Errorf("%d log records span %d segments, want 1", commits-1, got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRejectsForeignEntries: a snapshot or record not written by
// this protocol is refused before any state is decoded.
func TestJournalRejectsForeignEntries(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		seq        uint64
		typ        byte
		data       string
	}{
		{"schema-1-snapshot", snapName(0), 0, typeSnapshot, `{"schema":1,"session":{}}`},
		{"intent-record", segName(1), 1, 1, `{"epoch":0}`},
		{"bare-state-record", segName(1), 1, recState, `{"epoch":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := wal.NewCrashFS(1)
			b, err := appendFrame(nil, tc.seq, tc.typ, []byte(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			plantFile(t, fsys, tc.file, b)
			if _, _, err := OpenJournal(fsys, 2, nil); !errors.Is(err, ErrBadState) {
				t.Errorf("err = %v, want ErrBadState", err)
			}
		})
	}
}

// TestJournalReopen: a journal reopened after a crashed commit carries
// on exactly as a fresh open of the same files would, at every
// crashpoint of a run; and a refused Reopen leaves it closed.
func TestJournalReopen(t *testing.T) {
	const every, commits, seed = 3, 9, 11
	// run commits until the session reaches epoch epochs, rewinding to
	// the recovered state after each failed commit. Crashpoint k counts
	// from the first op after the open (0 disarms); ops reports how
	// many ran after it.
	run := func(t *testing.T, k, epochs int) (fsys *wal.CrashFS, j *Journal, s *Session, ops int, crashed bool) {
		fsys = wal.NewCrashFS(seed)
		j, _, err := OpenJournal(fsys, every, nil)
		if err != nil {
			t.Fatal(err)
		}
		opened := fsys.Ops()
		if k > 0 {
			fsys.SetCrashAt(opened + k)
		}
		if s, err = NewSession(baseConfig(t)); err != nil {
			t.Fatal(err)
		}
		for s.Epoch() < epochs {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(s, nil, nil); err == nil {
				continue
			}
			crashed = true
			fsys.Recover()
			rec, err := j.Reopen()
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if s, err = NewSession(baseConfig(t)); err != nil {
				t.Fatal(err)
			}
			if rec.State != nil {
				if err := s.RestoreState(rec.State); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fsys, j, s, fsys.Ops() - opened, crashed
	}

	// Crash at every op of the first commits-1 commits: each fails a
	// commit no later than the last one.
	_, _, _, ops, _ := run(t, 0, commits-1)
	for k := 1; k <= ops; k++ {
		t.Run(fmt.Sprintf("crash-%d", k), func(t *testing.T) {
			fsys, j, s, _, crashed := run(t, k, commits)
			if !crashed {
				t.Fatalf("crashpoint %d failed no commit", k)
			}
			fresh, rec, err := OpenJournal(fsys, every, nil)
			if err != nil {
				t.Fatal(err)
			}
			if j.Segments() != fresh.Segments() || j.LastSnapshotEpoch() != fresh.LastSnapshotEpoch() {
				t.Errorf("reopened journal: %d segments, last snapshot %d; a fresh open: %d, %d",
					j.Segments(), j.LastSnapshotEpoch(), fresh.Segments(), fresh.LastSnapshotEpoch())
			}
			st, err := s.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rec.State)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("a fresh open restores %d bytes of state, not the %d of the last commit", len(got), len(want))
			}
		})
	}

	t.Run("refused", func(t *testing.T) {
		fsys := wal.NewCrashFS(seed)
		j, _, err := OpenJournal(fsys, every, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(baseConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // a snapshot, then record 1 in segment 1
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(s, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		b, err := appendFrame(nil, 2, 1, []byte(`{"epoch":2}`))
		if err != nil {
			t.Fatal(err)
		}
		plantFile(t, fsys, segName(2), b)
		if _, err := j.Reopen(); !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "type 1") {
			t.Fatalf("Reopen over a type-1 record: err = %v, want ErrBadState naming type 1", err)
		}
		ops := fsys.Ops()
		if err := j.Commit(s, nil, nil); err == nil {
			t.Error("Commit after a refused Reopen succeeded")
		}
		if err := j.Checkpoint(s, nil); err == nil {
			t.Error("Checkpoint after a refused Reopen succeeded")
		}
		if got := fsys.Ops(); got != ops {
			t.Errorf("commits after a refused Reopen ran %d storage ops, want 0", got-ops)
		}
	})
}

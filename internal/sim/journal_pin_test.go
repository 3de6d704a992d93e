package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"greenhetero/internal/wal"
)

// The journal-v2 pin is a state dir written by the schema-2 journal,
// committed so that a later build must read it, and write it, byte for
// byte. A format change gets a new schema and a new directory.
//
// It was written once, by the journal as it stood before the log moved
// into this package, when the wal package's record store still owned
// frames and file names: NewSession(baseConfig) on a CrashFS, cadence
// 4, seven Step+Commit pairs, each log record carrying {"epoch":n} and
// each snapshot {"snapshot":n}, and a Reopen after the sixth commit.
// Commit 1 is the epoch-1 snapshot, 2-4 are records 1-3, commit 5 is
// the epoch-5 snapshot that prunes them, and 6 and 7 are records 4 and
// 5, one segment per open. journal-v2-state.json is the ExportState of
// the seventh commit.
const (
	journalPinDir   = "testdata/journal-v2"
	journalPinState = "testdata/journal-v2-state.json"
)

// pinnedEntries decodes the entries the pin holds: the epoch-5
// snapshot's and the two log records', in commit order.
func pinnedEntries(t *testing.T, files map[string][]byte) (snap []byte, recs [][]byte) {
	t.Helper()
	for _, name := range []string{"snap-0000000000000005.db", "wal-0000000000000004.log", "wal-0000000000000005.log"} {
		frames, _, damage := decodeFrames(files[name])
		if damage != "" || len(frames) != 1 {
			t.Fatalf("%s: %d frames, damage %q; want one clean frame", name, len(frames), damage)
		}
		if frames[0].typ == typeSnapshot {
			snap = frames[0].data
		} else {
			recs = append(recs, frames[0].data)
		}
	}
	if snap == nil || len(recs) != 2 {
		t.Fatalf("pin holds snapshot %v and %d records; want one and two", snap != nil, len(recs))
	}
	return snap, recs
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestJournalFormatPinned holds the journal to the on-disk format of
// testdata/journal-v2 in both directions: it reads the committed dir
// back to the committed state and payloads, and replaying the sequence
// that wrote it writes the same file names and bytes.
func TestJournalFormatPinned(t *testing.T) {
	want := readDir(t, journalPinDir)
	wantState, err := os.ReadFile(journalPinState)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("read", func(t *testing.T) {
		dir := t.TempDir()
		for name, b := range want {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fsys, err := wal.NewDirFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, rec, err := OpenJournal(fsys, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if rec.State == nil {
			t.Fatal("no state recovered")
		}
		got, err := json.Marshal(rec.State)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantState) {
			t.Errorf("restored state (%d bytes) differs from %s (%d bytes)", len(got), journalPinState, len(wantState))
		}
		if string(rec.Snapshot) != `{"snapshot":5}` {
			t.Errorf("snapshot payload %s, want {\"snapshot\":5}", rec.Snapshot)
		}
		if got := fmt.Sprintf("%s", rec.Tail); got != `[{"epoch":6} {"epoch":7}]` {
			t.Errorf("tail payloads %s, want [{\"epoch\":6} {\"epoch\":7}]", got)
		}
		if j.Segments() != 2 || j.LastSnapshotEpoch() != 5 {
			t.Errorf("segments %d, last snapshot %d; want 2 and 5", j.Segments(), j.LastSnapshotEpoch())
		}
	})

	t.Run("write", func(t *testing.T) {
		// Replay the pinned commit order through the journal's write
		// path with the pinned entry bytes, so this leg pins frames,
		// file names and the op sequence, not the simulator's numerics.
		// Commits 1-4 are pruned by the epoch-5 snapshot and never reach
		// the pin, so any entry stands in for them.
		snap, recs := pinnedEntries(t, want)
		fsys := wal.NewCrashFS(1)
		j, _, err := OpenJournal(fsys, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := []struct {
			snapshot bool
			epoch    int
			entry    []byte
		}{
			{true, 1, snap}, {false, 2, snap}, {false, 3, snap}, {false, 4, snap},
			{true, 5, snap}, {false, 6, recs[0]}, {false, 7, recs[1]},
		}
		for i, st := range steps {
			if err := j.write(st.snapshot, st.epoch, st.entry); err != nil {
				t.Fatalf("commit %d: %v", i+1, err)
			}
			if i+1 == 6 {
				if _, err := j.Reopen(); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := fsys.DumpTo(dir); err != nil {
			t.Fatal(err)
		}
		got := readDir(t, dir)
		if len(got) != len(want) {
			t.Errorf("wrote %d files, want %d", len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Errorf("%s: wrote %d bytes that differ from the pinned %d", name, len(got[name]), len(b))
			}
		}
	})
}

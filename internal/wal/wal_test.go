package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collectLogf returns a Logf that accumulates formatted warnings.
func collectLogf(dst *[]string) func(string, ...any) {
	return func(format string, args ...any) {
		*dst = append(*dst, fmt.Sprintf(format, args...))
	}
}

func mustOpen(t *testing.T, fsys FS, logf func(string, ...any)) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(fsys, logf)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func appendN(t *testing.T, s *Store, typ byte, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(typ, []byte(fmt.Sprintf("%s-%d", label, i))); err != nil {
			t.Fatalf("Append %s-%d: %v", label, i, err)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := NewCrashFS(1)
	s, rec := mustOpen(t, fs, nil)
	if rec.SnapshotEpoch != -1 || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendN(t, s, 1, 5, "r")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := mustOpen(t, fs, nil)
	if len(rec2.Records) != 5 || rec2.Truncated {
		t.Fatalf("reopen recovered %d records (truncated=%v), want 5 clean", len(rec2.Records), rec2.Truncated)
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || r.Type != 1 || string(r.Data) != fmt.Sprintf("r-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// appendRuns forms a segment chain: each run of records goes to a fresh
// segment, because every Open starts one.
func appendRuns(t *testing.T, fsys FS, runs ...int) *Store {
	t.Helper()
	var s *Store
	for i, n := range runs {
		if s != nil {
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
		s, _ = mustOpen(t, fsys, nil)
		appendN(t, s, 1, n, fmt.Sprintf("run%d", i))
	}
	return s
}

func TestStoreSegmentRotationAndContinuity(t *testing.T) {
	fs := NewCrashFS(2)
	s := appendRuns(t, fs, 3, 3, 3, 1)
	if got := s.Segments(); got != 4 {
		t.Fatalf("segments = %d, want 4 (one per open)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, rec := mustOpen(t, fs, nil)
	if len(rec.Records) != 10 || rec.Truncated {
		t.Fatalf("recovered %d records (truncated=%v), want 10 clean", len(rec.Records), rec.Truncated)
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: the chain is not continuous", i, r.Seq)
		}
	}
	// New appends continue the sequence in a fresh segment.
	appendN(t, s2, 1, 1, "y")
	if got := s2.Segments(); got != 5 {
		t.Fatalf("segments after resume-append = %d, want 5", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := mustOpen(t, fs, nil)
	if len(rec2.Records) != 11 || rec2.Records[10].Seq != 11 {
		t.Fatalf("after resume-append: %d records, last seq %d", len(rec2.Records), rec2.Records[len(rec2.Records)-1].Seq)
	}
}

func TestStoreSnapshotCutsAndPrunes(t *testing.T) {
	fs := NewCrashFS(3)
	s, _ := mustOpen(t, fs, nil)
	appendN(t, s, 1, 4, "pre")
	if err := s.SaveSnapshot(4, []byte("state@4")); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if got := s.Segments(); got != 0 {
		t.Fatalf("segments after snapshot = %d, want 0 (pruned)", got)
	}
	if got := s.LastSnapshotEpoch(); got != 4 {
		t.Fatalf("LastSnapshotEpoch = %d, want 4", got)
	}
	appendN(t, s, 1, 2, "post")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec := mustOpen(t, fs, nil)
	if rec.SnapshotEpoch != 4 || string(rec.Snapshot) != "state@4" {
		t.Fatalf("recovered snapshot epoch %d data %q", rec.SnapshotEpoch, rec.Snapshot)
	}
	if len(rec.Records) != 2 || rec.Records[0].Seq != 5 {
		t.Fatalf("tail = %d records starting at seq %d, want 2 starting at 5", len(rec.Records), rec.Records[0].Seq)
	}
	// Only the one snapshot file and the one post-snapshot segment
	// remain on disk.
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var nSeg, nSnap int
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) {
			nSeg++
		}
		if strings.HasPrefix(n, snapPrefix) {
			nSnap++
		}
	}
	if nSeg != 1 || nSnap != 1 {
		t.Fatalf("disk has %d segments, %d snapshots (%v), want 1 and 1", nSeg, nSnap, names)
	}
}

func TestStoreTornTailTruncatesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	dfs, err := NewDirFS(dir)
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	s, _ := mustOpen(t, dfs, nil)
	appendN(t, s, 1, 3, "r")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the last record: chop 5 bytes off the segment.
	seg := findOne(t, dir, segPrefix)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(seg, b[:len(b)-5], 0o644); err != nil {
		t.Fatalf("tear segment: %v", err)
	}

	var warnings []string
	s2, rec, err := Open(dfs, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("Open over torn tail must succeed, got %v", err)
	}
	if !rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records (truncated=%v), want 2 truncated", len(rec.Records), rec.Truncated)
	}
	if !anyContains(warnings, "truncating log") {
		t.Fatalf("no truncation warning in %v", warnings)
	}
	// The damaged segment was physically repaired: a fresh Open sees a
	// clean log.
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var w2 []string
	_, rec2, err := Open(dfs, collectLogf(&w2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec2.Truncated || len(rec2.Records) != 2 {
		t.Fatalf("after repair: %d records truncated=%v, want 2 clean", len(rec2.Records), rec2.Truncated)
	}
}

func TestStoreCorruptMiddleDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	dfs, err := NewDirFS(dir)
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	s := appendRuns(t, dfs, 2, 2, 2) // three segments
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := findAll(t, dir, segPrefix)
	if len(segs) != 3 {
		t.Fatalf("have %d segments, want 3", len(segs))
	}
	// Flip one byte inside the middle segment's first record payload.
	b, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[frameHeaderLen+payloadFixedLen] ^= 0x40
	if err := os.WriteFile(segs[1], b, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	var warnings []string
	_, rec, err := Open(dfs, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("Open over corrupt middle must succeed, got %v", err)
	}
	if !rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records (truncated=%v), want only segment 1's 2 records", len(rec.Records), rec.Truncated)
	}
	if !anyContains(warnings, "CRC32C mismatch") || !anyContains(warnings, "dropping unreachable segment") {
		t.Fatalf("warnings missing corruption/drop notices: %v", warnings)
	}
	if got := findAll(t, dir, segPrefix); len(got) != 1 {
		t.Fatalf("%d segment files survive, want 1 (corrupt + later ones removed)", len(got))
	}
}

func TestStoreInvalidSnapshotFallsBack(t *testing.T) {
	fs := NewCrashFS(4)
	s, _ := mustOpen(t, fs, nil)
	appendN(t, s, 1, 1, "a")
	if err := s.SaveSnapshot(1, []byte("good@1")); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Plant a newer snapshot with garbage content.
	f, err := fs.Create(snapName(9))
	if err != nil {
		t.Fatalf("plant: %v", err)
	}
	if _, err := f.Write([]byte("garbage, not a frame")); err != nil {
		t.Fatalf("plant write: %v", err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatalf("plant syncdir: %v", err)
	}

	var warnings []string
	_, rec, err := Open(fs, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.SnapshotEpoch != 1 || string(rec.Snapshot) != "good@1" {
		t.Fatalf("recovered snapshot epoch %d %q, want fallback to epoch 1", rec.SnapshotEpoch, rec.Snapshot)
	}
	if !anyContains(warnings, "ignoring invalid snapshot") {
		t.Fatalf("no invalid-snapshot warning in %v", warnings)
	}
}

func TestStoreRemovesLeftoverTemp(t *testing.T) {
	fs := NewCrashFS(5)
	f, err := fs.Create(tmpSnap)
	if err != nil {
		t.Fatalf("plant tmp: %v", err)
	}
	if _, err := f.Write([]byte("half-written snapshot")); err != nil {
		t.Fatalf("write tmp: %v", err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	var warnings []string
	mustOpen(t, fs, collectLogf(&warnings))
	if !anyContains(warnings, "leftover temporary") {
		t.Fatalf("no temp warning in %v", warnings)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, tmpPrefix) {
			t.Fatalf("temporary %s survived Open", n)
		}
	}
}

// TestStoreCrashAtEveryOp is the WAL-level half of the equivalence
// proof: a scripted append/snapshot workload is crashed at every
// mutating FS operation, recovered, and re-opened; recovery must always
// yield a clean prefix of the committed records, and completing the
// workload afterwards must always produce the full committed history.
// The workload reopens the store mid-run before and after its snapshot,
// so the crashpoints cross segment boundaries on both sides of it.
func TestStoreCrashAtEveryOp(t *testing.T) {
	const seed = 42
	workload := func(fs *CrashFS) error {
		s, rec, err := Open(fs, nil)
		if err != nil {
			return err
		}
		// Resume the payload counter from what recovery salvaged.
		next := 0
		if rec.SnapshotEpoch >= 0 {
			next = rec.SnapshotEpoch
		}
		next += len(rec.Records)
		for ; next < 7; next++ {
			// The snapshot point is a pure function of progress, so a
			// restarted run re-decides it identically.
			if next == 4 && s.LastSnapshotEpoch() < 4 {
				if err := s.SaveSnapshot(4, []byte("snap4")); err != nil {
					return err
				}
			}
			if next == 2 || next == 6 {
				if err := s.Close(); err != nil {
					return err
				}
				if s, _, err = Open(fs, nil); err != nil {
					return err
				}
			}
			if err := s.Append(1, []byte(fmt.Sprintf("v%d", next))); err != nil {
				return err
			}
		}
		return s.Close()
	}

	// Baseline: uninterrupted run.
	base := NewCrashFS(seed)
	if err := workload(base); err != nil {
		t.Fatalf("baseline workload: %v", err)
	}
	total := base.Ops()
	if total < 20 {
		t.Fatalf("workload exposes only %d crashpoints; expected a rich schedule", total)
	}
	_, baseRec, err := Open(base, nil)
	if err != nil {
		t.Fatalf("baseline reopen: %v", err)
	}
	baseState := replayPayloads(baseRec)

	for k := 1; k <= total; k++ {
		fs := NewCrashFS(seed)
		fs.SetCrashAt(k)
		err := workload(fs)
		if !fs.Crashed() {
			t.Fatalf("crashpoint %d never fired", k)
		}
		if err == nil {
			// The crash may fire inside Close()'s no-op path only if the
			// workload already finished; any committed state must then be
			// complete. Fall through to the restart below either way.
			t.Logf("crashpoint %d: workload returned nil", k)
		}
		fs.Recover()

		// Restart and run to completion.
		if err := workload(fs); err != nil {
			t.Fatalf("crashpoint %d: restarted workload failed: %v", k, err)
		}
		_, rec, err := Open(fs, nil)
		if err != nil {
			t.Fatalf("crashpoint %d: final open: %v", k, err)
		}
		if got := replayPayloads(rec); got != baseState {
			t.Fatalf("crashpoint %d: final state %q != baseline %q", k, got, baseState)
		}
	}
}

// replayPayloads folds a recovery into a comparable string: the
// snapshot watermark plus every tail payload.
func replayPayloads(rec Recovered) string {
	var b strings.Builder
	fmt.Fprintf(&b, "snap=%d|", rec.SnapshotEpoch)
	for _, r := range rec.Records {
		b.Write(r.Data)
		b.WriteByte('|')
	}
	return b.String()
}

// TestCrashFSDurabilityModel pins the semantics the store relies on.
func TestCrashFSDurabilityModel(t *testing.T) {
	fs := NewCrashFS(7)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("synced")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	// A second file is created but its directory entry is never synced.
	g, err := fs.Create("b")
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if _, err := g.Write([]byte("lost")); err != nil {
		t.Fatalf("Write b: %v", err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("Sync b: %v", err)
	}

	fs.SetCrashAt(fs.Ops() + 1)
	if _, err := f.Write([]byte("torn")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed write returned %v, want ErrCrashed", err)
	}
	if err := fs.SyncDir(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op returned %v, want ErrCrashed", err)
	}
	fs.Recover()

	// File a: the synced prefix survives; the torn suffix may partially
	// survive but never beyond what was written.
	b, err := fs.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile a after recover: %v", err)
	}
	if !bytes.HasPrefix(b, []byte("synced")) || len(b) > len("syncedtorn") {
		t.Fatalf("file a recovered as %q", b)
	}
	// File b: never linked durably — gone.
	if _, err := fs.ReadFile("b"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file b after recover: err=%v, want not-exist", err)
	}

	// Determinism: the same seed and crash schedule produce the same
	// disk image.
	run := func() []byte {
		fs := NewCrashFS(7)
		f, _ := fs.Create("a")
		_, _ = f.Write([]byte("synced"))
		_ = f.Sync()
		_ = fs.SyncDir()
		g, _ := fs.Create("b")
		_, _ = g.Write([]byte("lost"))
		_ = g.Sync()
		fs.SetCrashAt(fs.Ops() + 1)
		_, _ = f.Write([]byte("torn"))
		fs.Recover()
		out, _ := fs.ReadFile("a")
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("CrashFS recovery is not deterministic for identical schedules")
	}
}

func TestDirFSRejectsPathEscapes(t *testing.T) {
	dfs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := dfs.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded, want error", name)
		}
	}
}

func findOne(t *testing.T, dir, prefix string) string {
	t.Helper()
	got := findAll(t, dir, prefix)
	if len(got) != 1 {
		t.Fatalf("found %d files with prefix %s, want 1", len(got), prefix)
	}
	return got[0]
}

func findAll(t *testing.T, dir, prefix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func anyContains(haystack []string, needle string) bool {
	for _, h := range haystack {
		if strings.Contains(h, needle) {
			return true
		}
	}
	return false
}

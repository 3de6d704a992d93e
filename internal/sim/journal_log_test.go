package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greenhetero/internal/wal"
)

// The log suite drives the journal's framing, segment and snapshot
// layer with small hand-made entries (a state carrying only an epoch,
// and a string payload) through write, so each scenario reads as the
// files it leaves.

// logEntry encodes a journal entry whose state is just epoch and whose
// payload is the JSON string data.
func logEntry(t testing.TB, epoch int, data string) []byte {
	t.Helper()
	b, err := json.Marshal(journalEntry{Schema: journalSchema, State: &State{Epoch: epoch}, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collectLogf returns a logf that accumulates formatted warnings.
func collectLogf(dst *[]string) func(string, ...any) {
	return func(format string, args ...any) {
		*dst = append(*dst, fmt.Sprintf(format, args...))
	}
}

func mustOpenJournal(t *testing.T, fsys wal.FS, logf func(string, ...any)) (*Journal, JournalRecovery) {
	t.Helper()
	j, rec, err := OpenJournal(fsys, 1, logf)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, rec
}

func appendN(t *testing.T, j *Journal, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.write(false, 0, logEntry(t, 0, fmt.Sprintf("%s-%d", label, i))); err != nil {
			t.Fatalf("append %s-%d: %v", label, i, err)
		}
	}
}

func snapshotAt(t *testing.T, j *Journal, epoch int, data string) {
	t.Helper()
	if err := j.write(true, epoch, logEntry(t, epoch, data)); err != nil {
		t.Fatalf("snapshot at epoch %d: %v", epoch, err)
	}
}

// tailData decodes the recovered tail payloads, oldest first.
func tailData(t *testing.T, rec JournalRecovery) []string {
	t.Helper()
	out := make([]string, len(rec.Tail))
	for i, raw := range rec.Tail {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("tail payload %d %s: %v", i, raw, err)
		}
	}
	return out
}

func TestJournalLogRoundTrip(t *testing.T) {
	fs := wal.NewCrashFS(1)
	var warnings []string
	j, rec := mustOpenJournal(t, fs, collectLogf(&warnings))
	if rec.State != nil || len(rec.Tail) != 0 || j.LastSnapshotEpoch() != -1 || len(warnings) != 0 {
		t.Fatalf("fresh dir recovered %+v, last snapshot %d, warnings %v", rec, j.LastSnapshotEpoch(), warnings)
	}
	appendN(t, j, 5, "r")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := mustOpenJournal(t, fs, collectLogf(&warnings))
	got := tailData(t, rec2)
	if len(got) != 5 || anyContains(warnings, "truncating") {
		t.Fatalf("reopen recovered %d records (warnings %v), want 5 clean", len(got), warnings)
	}
	for i, d := range got {
		if d != fmt.Sprintf("r-%d", i) {
			t.Fatalf("record %d = %q", i, d)
		}
	}
	if j2.nextSeq != 6 {
		t.Fatalf("next seq %d after records 1..5", j2.nextSeq)
	}
}

// appendRuns forms a segment chain: each run of records goes to a fresh
// segment, because every Reopen starts one.
func appendRuns(t *testing.T, fsys wal.FS, runs ...int) *Journal {
	t.Helper()
	j, _ := mustOpenJournal(t, fsys, nil)
	for i, n := range runs {
		if i > 0 {
			if _, err := j.Reopen(); err != nil {
				t.Fatalf("Reopen: %v", err)
			}
		}
		appendN(t, j, n, fmt.Sprintf("run%d", i))
	}
	return j
}

func TestJournalLogSegmentContinuity(t *testing.T) {
	fs := wal.NewCrashFS(2)
	j := appendRuns(t, fs, 3, 3, 3, 1)
	if got := j.Segments(); got != 4 {
		t.Fatalf("segments = %d, want 4 (one per open)", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var warnings []string
	j2, rec := mustOpenJournal(t, fs, collectLogf(&warnings))
	if got := tailData(t, rec); len(got) != 10 || anyContains(warnings, "truncating") {
		t.Fatalf("recovered %d records (warnings %v), want 10 clean", len(got), warnings)
	}
	if j2.nextSeq != 11 {
		t.Fatalf("next seq %d after records 1..10: the chain is not continuous", j2.nextSeq)
	}
	// New appends continue the sequence in a fresh segment.
	appendN(t, j2, 1, "y")
	if got := j2.Segments(); got != 5 {
		t.Fatalf("segments after resume-append = %d, want 5", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, rec2 := mustOpenJournal(t, fs, nil)
	if got := tailData(t, rec2); len(got) != 11 || got[10] != "y-0" || j3.nextSeq != 12 {
		t.Fatalf("after resume-append: %d records %v, next seq %d", len(got), got, j3.nextSeq)
	}
}

func TestJournalLogSnapshotCutsAndPrunes(t *testing.T) {
	fs := wal.NewCrashFS(3)
	j, _ := mustOpenJournal(t, fs, nil)
	appendN(t, j, 4, "pre")
	snapshotAt(t, j, 4, "state@4")
	if got := j.Segments(); got != 0 {
		t.Fatalf("segments after snapshot = %d, want 0 (pruned)", got)
	}
	if got := j.LastSnapshotEpoch(); got != 4 {
		t.Fatalf("LastSnapshotEpoch = %d, want 4", got)
	}
	appendN(t, j, 2, "post")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec := mustOpenJournal(t, fs, nil)
	if j2.LastSnapshotEpoch() != 4 || string(rec.Snapshot) != `"state@4"` {
		t.Fatalf("recovered snapshot epoch %d data %s", j2.LastSnapshotEpoch(), rec.Snapshot)
	}
	if got := tailData(t, rec); fmt.Sprint(got) != "[post-0 post-1]" || j2.nextSeq != 7 {
		t.Fatalf("tail = %v, next seq %d; want [post-0 post-1] at seqs 5 and 6", got, j2.nextSeq)
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

func TestJournalLogTornTailTruncatesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	j, _ := mustOpenJournal(t, dfs, nil)
	appendN(t, j, 3, "r")
	if err := j.Close(); err != nil {
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
	j2, rec, err := OpenJournal(dfs, 1, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("open over torn tail must succeed, got %v", err)
	}
	if got := tailData(t, rec); len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if !anyContains(warnings, "truncating log") {
		t.Fatalf("no truncation warning in %v", warnings)
	}
	// The damaged segment was physically repaired: a fresh open sees a
	// clean log.
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var w2 []string
	_, rec2, err := OpenJournal(dfs, 1, collectLogf(&w2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := tailData(t, rec2); len(got) != 2 || anyContains(w2, "truncating") {
		t.Fatalf("after repair: %d records, warnings %v; want 2 clean", len(got), w2)
	}
}

func TestJournalLogCorruptMiddleDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatalf("NewDirFS: %v", err)
	}
	j := appendRuns(t, dfs, 2, 2, 2) // three segments
	if err := j.Close(); err != nil {
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
	_, rec, err := OpenJournal(dfs, 1, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("open over corrupt middle must succeed, got %v", err)
	}
	if got := tailData(t, rec); fmt.Sprint(got) != "[run0-0 run0-1]" {
		t.Fatalf("recovered %v, want only segment 1's 2 records", got)
	}
	if !anyContains(warnings, "CRC32C mismatch") || !anyContains(warnings, "dropping unreachable segment") {
		t.Fatalf("warnings missing corruption/drop notices: %v", warnings)
	}
	if got := findAll(t, dir, segPrefix); len(got) != 1 {
		t.Fatalf("%d segment files survive, want 1 (corrupt + later ones removed)", len(got))
	}
}

// plantFile writes b as name and makes it durable, bypassing the
// journal.
func plantFile(t *testing.T, fsys wal.FS, name string, b []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatalf("plant %s: %v", name, err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatalf("plant %s: %v", name, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("plant %s: %v", name, err)
	}
	if err := fsys.SyncDir(); err != nil {
		t.Fatalf("plant %s: %v", name, err)
	}
}

func TestJournalLogInvalidSnapshotFallsBack(t *testing.T) {
	fs := wal.NewCrashFS(4)
	j, _ := mustOpenJournal(t, fs, nil)
	appendN(t, j, 1, "a")
	snapshotAt(t, j, 1, "good@1")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Plant a newer snapshot with garbage content.
	plantFile(t, fs, snapName(9), []byte("garbage, not a frame"))

	var warnings []string
	j2, rec, err := OpenJournal(fs, 1, collectLogf(&warnings))
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if j2.LastSnapshotEpoch() != 1 || string(rec.Snapshot) != `"good@1"` {
		t.Fatalf("recovered snapshot epoch %d %s, want fallback to epoch 1", j2.LastSnapshotEpoch(), rec.Snapshot)
	}
	if !anyContains(warnings, "ignoring invalid snapshot") {
		t.Fatalf("no invalid-snapshot warning in %v", warnings)
	}
}

func TestJournalLogRemovesLeftoverTemp(t *testing.T) {
	fs := wal.NewCrashFS(5)
	plantFile(t, fs, tmpSnap, []byte("half-written snapshot"))
	// A foreign file that sorts after the temporary: the scan warns
	// about it before any temporary is removed.
	plantFile(t, fs, "zz-notes", []byte("not ours"))
	var warnings []string
	mustOpenJournal(t, fs, collectLogf(&warnings))
	if len(warnings) != 2 || !strings.Contains(warnings[0], "unrecognized file zz-notes") ||
		!strings.Contains(warnings[1], "leftover temporary "+tmpSnap) {
		t.Fatalf("warnings %q, want the unrecognized file, then the temp removal", warnings)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, tmpPrefix) {
			t.Fatalf("temporary %s survived the open", n)
		}
	}
}

// TestJournalLogCrashAtEveryOp crashes a scripted append/snapshot
// workload at every mutating FS operation, recovers, and reopens;
// recovery must always yield a clean prefix of the committed records,
// and completing the workload afterwards must always produce the full
// committed history. The workload reopens the journal mid-run before
// and after its snapshot, so the crashpoints cross segment boundaries
// on both sides of it.
func TestJournalLogCrashAtEveryOp(t *testing.T) {
	const seed = 42
	workload := func(fs *wal.CrashFS) error {
		j, rec, err := OpenJournal(fs, 1, nil)
		if err != nil {
			return err
		}
		// Resume the payload counter from what recovery salvaged.
		next := 0
		if e := j.LastSnapshotEpoch(); e >= 0 {
			next = e
		}
		next += len(rec.Tail)
		for ; next < 7; next++ {
			// The snapshot point is a pure function of progress, so a
			// restarted run re-decides it identically.
			if next == 4 && j.LastSnapshotEpoch() < 4 {
				if err := j.write(true, 4, logEntry(t, 4, "snap4")); err != nil {
					return err
				}
			}
			if next == 2 || next == 6 {
				if _, err := j.Reopen(); err != nil {
					return err
				}
			}
			if err := j.write(false, 0, logEntry(t, 0, fmt.Sprintf("v%d", next))); err != nil {
				return err
			}
		}
		return j.Close()
	}
	// replayed folds a recovery into a comparable string: the snapshot
	// watermark plus every tail payload.
	replayed := func(fs *wal.CrashFS) (string, error) {
		j, rec, err := OpenJournal(fs, 1, nil)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("snap=%d|%s", j.LastSnapshotEpoch(), tailData(t, rec)), nil
	}

	// Baseline: uninterrupted run.
	base := wal.NewCrashFS(seed)
	if err := workload(base); err != nil {
		t.Fatalf("baseline workload: %v", err)
	}
	total := base.Ops()
	if total < 33 {
		t.Fatalf("workload exposes only %d crashpoints; expected a rich schedule", total)
	}
	baseState, err := replayed(base)
	if err != nil {
		t.Fatalf("baseline reopen: %v", err)
	}

	for k := 1; k <= total; k++ {
		fs := wal.NewCrashFS(seed)
		fs.SetCrashAt(k)
		err := workload(fs)
		if !fs.Crashed() {
			t.Fatalf("crashpoint %d never fired", k)
		}
		if err == nil {
			t.Logf("crashpoint %d: workload returned nil", k)
		}
		fs.Recover()

		// Restart and run to completion.
		if err := workload(fs); err != nil {
			t.Fatalf("crashpoint %d: restarted workload failed: %v", k, err)
		}
		got, err := replayed(fs)
		if err != nil {
			t.Fatalf("crashpoint %d: final open: %v", k, err)
		}
		if got != baseState {
			t.Fatalf("crashpoint %d: final state %q != baseline %q", k, got, baseState)
		}
	}
}

// FuzzWALReplay hammers the frame decoder with truncation, bit-flips,
// and garbage. Invariants: decoding never panics, never returns a frame
// whose re-encoding (and therefore CRC) disagrees with the bytes it was
// decoded from, keeps sequence numbers strictly consecutive, and
// consumes exactly the clean prefix.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a clean three-record log of journal state frames,
	// plus mutants.
	var clean []byte
	for i, data := range []string{
		`{"schema":2,"state":{"epoch":1}}`,
		`{"schema":2,"state":{"epoch":2},"data":{}}`,
		`{"schema":2,"state":{"epoch":3}}`,
	} {
		var err error
		if clean, err = appendFrame(clean, uint64(i+1), recState, []byte(data)); err != nil {
			f.Fatalf("encode: %v", err)
		}
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                 // torn tail
	f.Add(append([]byte{0xff, 0xff}, clean...)) // garbage prefix
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		frames, consumed, damage := decodeFrames(b)
		if consumed < 0 || consumed > len(b) {
			t.Fatalf("consumed %d outside [0,%d]", consumed, len(b))
		}
		if damage == "" && consumed != len(b) {
			t.Fatalf("no damage reported but only %d/%d bytes consumed", consumed, len(b))
		}
		// Every returned frame must re-encode to exactly the bytes it
		// came from, which also re-proves its CRC, and the whole clean
		// prefix must round-trip.
		var re []byte
		var err error
		for i, fr := range frames {
			if i > 0 && fr.seq != frames[i-1].seq+1 {
				t.Fatalf("frames %d..%d break sequence continuity: %d then %d", i-1, i, frames[i-1].seq, fr.seq)
			}
			re, err = appendFrame(re, fr.seq, fr.typ, fr.data)
			if err != nil {
				t.Fatalf("re-encode frame %d: %v", i, err)
			}
		}
		if !bytes.Equal(re, b[:consumed]) {
			t.Fatalf("re-encoded prefix (%d bytes) != consumed input (%d bytes)", len(re), consumed)
		}
		// Paranoia: recompute each frame's CRC from the consumed bytes
		// directly; a frame must never survive decoding with a bad CRC.
		off := 0
		for i := range frames {
			n := int(binary.LittleEndian.Uint32(b[off : off+4]))
			payload := b[off+frameHeaderLen : off+frameHeaderLen+n]
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[off+4:off+8]) {
				t.Fatalf("frame %d passed decoding with a failing CRC", i)
			}
			off += frameHeaderLen + n
		}
	})
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

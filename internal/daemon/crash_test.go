package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/wal"
)

// Crash-equivalence harness: the daemon's durability claim is that a
// crash at ANY write/sync/rename boundary, followed by a restart over
// the surviving files, converges to exactly the state an uninterrupted
// run produces. The CrashFS counts every durable-storage operation;
// TestDaemonCrashAtEveryCrashpoint re-runs the same scripted workload
// once per operation, killing the daemon at that boundary each time.

// crashEpochs is the scripted run length. Small enough that every
// crashpoint is exercised in a few seconds, large enough to cross
// several snapshot boundaries (SnapshotEvery=2), each of which closes
// one log segment and starts the next. At one fsynced append per epoch,
// 9 epochs make 67 storage ops.
const crashEpochs = 9

// finalState captures everything ISSUE's equivalence claim covers: the
// /db snapshot bytes, battery state of charge, and the epoch history.
type finalState struct {
	db      []byte
	soc     float64
	history []byte
}

// runToEnd builds a fresh session over fsys, steps it to crashEpochs,
// and stops. A storage crash surfaces as an error from New or StepEpoch.
func runToEnd(t *testing.T, fsys wal.FS, logf func(string, ...any)) (*Daemon, error) {
	t.Helper()
	sess := testSession(t)
	d, err := New(Config{
		Session:       sess,
		Tick:          time.Hour, // epochs driven by StepEpoch, not ticks
		HistoryLimit:  64,
		FS:            fsys,
		SnapshotEvery: 2,
		Logf:          logf,
	})
	if err != nil {
		return nil, err
	}
	for sess.Epoch() < crashEpochs {
		if err := d.StepEpoch(); err != nil {
			d.Stop()
			return nil, err
		}
	}
	d.Stop()
	return d, nil
}

// capture reads the daemon's final state. Only meaningful on a daemon
// that ran to completion.
func capture(t *testing.T, d *Daemon) finalState {
	t.Helper()
	var db bytes.Buffer
	d.mu.RLock()
	err := d.session.DB().Save(&db)
	soc := d.session.Bank().SoC()
	d.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	hist, err := json.Marshal(d.History())
	if err != nil {
		t.Fatal(err)
	}
	return finalState{db: db.Bytes(), soc: soc, history: hist}
}

func sameState(a, b finalState) bool {
	return bytes.Equal(a.db, b.db) &&
		math.Float64bits(a.soc) == math.Float64bits(b.soc) &&
		bytes.Equal(a.history, b.history)
}

// dumpArtifact writes the crashed filesystem's applied namespace for CI
// post-mortems when GREENHETERO_CRASH_ARTIFACT_DIR is set.
func dumpArtifact(t *testing.T, fsys *wal.CrashFS, k int) {
	t.Helper()
	root := os.Getenv("GREENHETERO_CRASH_ARTIFACT_DIR")
	if root == "" {
		return
	}
	dir := filepath.Join(root, fmt.Sprintf("crashpoint-%d", k))
	if err := fsys.DumpTo(dir); err != nil {
		t.Logf("dumping crash state: %v", err)
	} else {
		t.Logf("crash state dumped to %s", dir)
	}
}

func TestDaemonCrashAtEveryCrashpoint(t *testing.T) {
	const seed = 42
	quiet := func(string, ...any) {}

	// Baseline: same FS implementation, never armed, so the operation
	// count and final state are exactly what every crashed run converges
	// toward.
	base := wal.NewCrashFS(seed)
	d, err := runToEnd(t, base, quiet)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := capture(t, d)
	ops := base.Ops()
	if ops < 20 {
		t.Fatalf("baseline touched only %d storage ops; harness would prove little", ops)
	}
	t.Logf("baseline: %d storage ops, %d epochs", ops, crashEpochs)

	for k := 1; k <= ops; k++ {
		k := k
		t.Run(fmt.Sprintf("crashpoint-%d", k), func(t *testing.T) {
			fsys := wal.NewCrashFS(seed)
			fsys.SetCrashAt(k)
			_, runErr := runToEnd(t, fsys, quiet)
			if !fsys.Crashed() {
				t.Fatalf("crashpoint %d was never reached (run err=%v)", k, runErr)
			}

			// Reboot: the machine comes back with only what survived the
			// durability model, and the daemon must converge to baseline.
			fsys.Recover()
			d2, err := runToEnd(t, fsys, quiet)
			if err != nil {
				dumpArtifact(t, fsys, k)
				t.Fatalf("restart after crashpoint %d: %v", k, err)
			}
			got := capture(t, d2)
			if !sameState(got, want) {
				dumpArtifact(t, fsys, k)
				t.Errorf("crashpoint %d: recovered state diverges from uninterrupted run\n db equal: %v\n soc: got %x want %x\n history equal: %v",
					k, bytes.Equal(got.db, want.db),
					math.Float64bits(got.soc), math.Float64bits(want.soc),
					bytes.Equal(got.history, want.history))
			}
		})
	}
}

// TestDaemonDoubleCrashConverges arms a second crash during the
// recovery run itself: crash, reboot, crash again mid-recovery, reboot,
// and the third run must still converge to baseline.
func TestDaemonDoubleCrashConverges(t *testing.T) {
	const seed = 1337
	quiet := func(string, ...any) {}

	base := wal.NewCrashFS(seed)
	d, err := runToEnd(t, base, quiet)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := capture(t, d)
	ops := base.Ops()

	// A spread of first/second crashpoints rather than the full cross
	// product (which would be quadratic in ops).
	for _, k1 := range []int{1, ops / 3, ops / 2, ops - 1} {
		if k1 < 1 {
			continue
		}
		t.Run(fmt.Sprintf("first-%d", k1), func(t *testing.T) {
			fsys := wal.NewCrashFS(seed)
			fsys.SetCrashAt(k1)
			_, _ = runToEnd(t, fsys, quiet)
			if !fsys.Crashed() {
				t.Fatalf("crashpoint %d was never reached", k1)
			}
			fsys.Recover()
			// Second crash early in the recovery run, where replay and
			// re-checkpointing happen (the op counter is cumulative
			// across reboots, so arm relative to it).
			fsys.SetCrashAt(fsys.Ops() + 3)
			_, _ = runToEnd(t, fsys, quiet)
			if !fsys.Crashed() {
				t.Fatalf("second crashpoint was never reached after first crash at %d", k1)
			}
			fsys.Recover()
			d3, err := runToEnd(t, fsys, quiet)
			if err != nil {
				dumpArtifact(t, fsys, k1)
				t.Fatalf("third run after double crash: %v", err)
			}
			if got := capture(t, d3); !sameState(got, want) {
				dumpArtifact(t, fsys, k1)
				t.Errorf("double crash (first at %d): recovered state diverges from baseline", k1)
			}
		})
	}
}

// TestDaemonCorruptedTailTruncates kills a daemon without Stop, chops
// bytes off the newest WAL segment (a torn tail a real crash can
// leave), and asserts the next daemon starts anyway — logging the
// truncation, never refusing.
func TestDaemonCorruptedTailTruncates(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}

	sessA := testSession(t)
	dA, err := New(Config{
		Session:       sessA,
		Tick:          time.Hour,
		HistoryLimit:  64,
		StateDir:      dir,
		SnapshotEvery: 100, // keep every record in the log tail
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	for sessA.Epoch() < 4 {
		if err := dA.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// No Stop: simulate a hard kill with the log mid-flight.

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 6 {
		t.Fatalf("segment %s too small to tear", last)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	var logs []string
	logf := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	sessB := testSession(t)
	dB, err := New(Config{
		Session:       sessB,
		Tick:          time.Hour,
		HistoryLimit:  64,
		StateDir:      dir,
		SnapshotEvery: 100,
		Logf:          logf,
	})
	if err != nil {
		t.Fatalf("daemon must start over a torn tail, got: %v", err)
	}
	defer dB.Stop()
	if !dB.Recovered() {
		t.Error("daemon over existing state dir did not report recovery")
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "truncat") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no truncation warning logged; logs: %q", logs)
	}
	// The torn record covered epoch 3; the daemon replays up to the tear
	// and keeps going.
	if got := sessB.Epoch(); got < 3 || got > 4 {
		t.Errorf("recovered session at epoch %d, want 3 or 4", got)
	}
	if err := dB.StepEpoch(); err != nil {
		t.Errorf("stepping after torn-tail recovery: %v", err)
	}
}

// TestDaemonRejectsMismatchedStateDir proves the state fingerprint
// check: a state dir written under one scenario must not silently
// restore into a session built from another — other seed, other rack,
// or other solar trace.
func TestDaemonRejectsMismatchedStateDir(t *testing.T) {
	spec, err := server.Lookup(server.XeonE52603)
	if err != nil {
		t.Fatal(err)
	}
	otherRack, err := server.NewRack("daemon-test", server.Group{Spec: spec, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	lowTrace, err := solar.DefaultLow(2200)
	if err != nil {
		t.Fatal(err)
	}
	highTrace, err := solar.DefaultHigh(2200)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		other func(t *testing.T) *sim.Session
	}{
		{"other-seed", func(t *testing.T) *sim.Session { return testSessionSeed(t, 8) }},
		{"other-rack", func(t *testing.T) *sim.Session { return sessionFor(t, otherRack, highTrace, 7) }},
		{"other-trace", func(t *testing.T) *sim.Session { return sessionFor(t, testRack(t), lowTrace, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := wal.NewCrashFS(7)
			quiet := func(string, ...any) {}
			if _, err := runToEnd(t, fsys, quiet); err != nil {
				t.Fatal(err)
			}
			_, err := New(Config{
				Session:       tc.other(t),
				Tick:          time.Hour,
				HistoryLimit:  64,
				FS:            fsys,
				SnapshotEvery: 2,
				Logf:          quiet,
			})
			if !errors.Is(err, sim.ErrBadState) {
				t.Fatalf("daemon restored a snapshot from a different scenario: err = %v", err)
			}
		})
	}
}

// TestDaemonRefusesReplayProtocolStateDir feeds New a state dir the
// retired replay protocol wrote (a schema 1 snapshot followed by intent
// and epoch records, testdata/replay-v1): it must fail naming the
// format, with and without the snapshot in front of the records.
func TestDaemonRefusesReplayProtocolStateDir(t *testing.T) {
	src := filepath.Join("testdata", "replay-v1")
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		skip     string
		wantText string
	}{
		{"snapshot-and-log", "", "schema 1"},
		{"log-only", "snap-0000000000000000.db", "type 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, n := range names {
				if n.Name() == tc.skip {
					continue
				}
				b, err := os.ReadFile(filepath.Join(src, n.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, n.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			sess := testSession(t)
			_, err := New(Config{
				Session:  sess,
				Tick:     time.Hour,
				StateDir: dir,
				Logf:     func(string, ...any) {},
			})
			if err == nil || !strings.Contains(err.Error(), "replay protocol") || !strings.Contains(err.Error(), tc.wantText) {
				t.Fatalf("New over a replay-protocol state dir: err = %v, want one naming the replay protocol and %q", err, tc.wantText)
			}
			if sess.Epoch() != 0 {
				t.Errorf("session moved to epoch %d from a refused state dir", sess.Epoch())
			}
		})
	}
}

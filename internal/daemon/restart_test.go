package daemon

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"greenhetero/internal/breaker"
	"greenhetero/internal/telemetry"
)

// Restart-from-state-dir lifecycle: a daemon that ran (Start → ticks →
// Stop) leaves a state dir a brand-new daemon resumes from, and /status
// reports the durable-state plane on both sides.

func getStatus(t *testing.T, ts *httptest.Server) status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRestartFromStateDir(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}

	// First life: start, let the ticker drive real epochs, stop cleanly.
	sessA := testSession(t)
	dA, err := New(Config{
		Session:       sessA,
		Tick:          time.Millisecond,
		HistoryLimit:  16,
		StateDir:      dir,
		SnapshotEvery: 2,
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dA.Recovered() {
		t.Error("fresh state dir reported recovered")
	}
	if err := dA.Start(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(dA.Handler())
	stA := waitForEpochs(t, tsA, 3)
	tsA.Close()
	dA.Stop()
	if stA.Recovered {
		t.Error("first life /status reported recovered=true")
	}
	// New writes the identity checkpoint at epoch 0 before any tick.
	if stA.LastCheckpointEpoch < 0 {
		t.Errorf("first life lastCheckpointEpoch = %d, want >= 0", stA.LastCheckpointEpoch)
	}
	epochA := sessA.Epoch()
	if epochA < 3 {
		t.Fatalf("first life stopped at epoch %d", epochA)
	}

	// Second life: a new daemon over the same dir resumes mid-session.
	sessB := testSession(t)
	dB, err := New(Config{
		Session:       sessB,
		Tick:          time.Millisecond,
		HistoryLimit:  16,
		StateDir:      dir,
		SnapshotEvery: 2,
		Logf:          quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dB.Recovered() {
		t.Error("second life did not report recovery")
	}
	// Stop wrote a final checkpoint, so the second life resumes exactly
	// where the first stopped — no epochs lost, none replayed twice.
	if got := sessB.Epoch(); got != epochA {
		t.Errorf("second life resumed at epoch %d, first stopped at %d", got, epochA)
	}
	if got := dB.LastCheckpointEpoch(); got != epochA {
		t.Errorf("post-recovery checkpoint at epoch %d, want %d", got, epochA)
	}

	if err := dB.Start(); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(dB.Handler())
	defer tsB.Close()
	defer dB.Stop()
	stB := getStatus(t, tsB)
	if !stB.Recovered {
		t.Error("second life /status recovered = false")
	}
	if stB.LastCheckpointEpoch < epochA {
		t.Errorf("second life /status lastCheckpointEpoch = %d, want >= %d", stB.LastCheckpointEpoch, epochA)
	}
	// And it keeps making progress from there.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := getStatus(t, tsB); st.SessionEpoch > epochA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second life never advanced past the recovered epoch")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStopWithoutStartStillCheckpoints covers the never-started daemon:
// Stop must still flush a final checkpoint and close the store, and the
// next life must land exactly where StepEpoch left off.
func TestStopWithoutStartStillCheckpoints(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}
	sessA := testSession(t)
	dA, err := New(Config{
		Session:      sessA,
		Tick:         time.Hour,
		HistoryLimit: 16,
		StateDir:     dir,
		Logf:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	for sessA.Epoch() < 2 {
		if err := dA.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	dA.Stop()
	dA.Stop() // idempotent, including the store close

	sessB := testSession(t)
	dB, err := New(Config{
		Session:      sessB,
		Tick:         time.Hour,
		HistoryLimit: 16,
		StateDir:     dir,
		Logf:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dB.Stop()
	if !dB.Recovered() {
		t.Error("no recovery after Stop-without-Start life")
	}
	if got := sessB.Epoch(); got != 2 {
		t.Errorf("resumed at epoch %d, want 2", got)
	}
	if got := len(dB.History()); got != 2 {
		t.Errorf("recovered history has %d entries, want 2", got)
	}
}

// restoringHealth is a HealthSource that also restores: it reports a
// fixed snapshot and records what recovery hands back.
type restoringHealth struct {
	report   []telemetry.AgentHealth
	restored []telemetry.AgentHealth
	err      error
}

func (h *restoringHealth) Health() []telemetry.AgentHealth { return h.report }

func (h *restoringHealth) RestoreHealth(snap []telemetry.AgentHealth) error {
	h.restored = snap
	return h.err
}

// TestRestartRestoresAgentHealth: agent health persisted with every
// breaker state decodes on the next life, and the HealthRestorer
// receives exactly what the previous life reported.
func TestRestartRestoresAgentHealth(t *testing.T) {
	dir := t.TempDir()
	quiet := func(string, ...any) {}
	want := []telemetry.AgentHealth{
		{Addr: "10.0.0.1:7000", State: breaker.Open, ConsecutiveFailures: 3, Failures: 3, Stale: true, LastError: "dial timeout"},
		{Addr: "10.0.0.2:7000", State: breaker.HalfOpen, ConsecutiveFailures: 1, Successes: 4, Failures: 1},
		{Addr: "10.0.0.3:7000", State: breaker.Closed, Successes: 9},
	}
	dA, err := New(Config{
		Session:  testSession(t),
		Tick:     time.Hour,
		StateDir: dir,
		Health:   &restoringHealth{report: want},
		Logf:     quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dA.StepEpoch(); err != nil {
		t.Fatal(err)
	}
	dA.Stop()

	hB := &restoringHealth{report: want}
	dB, err := New(Config{
		Session:  testSession(t),
		Tick:     time.Hour,
		StateDir: dir,
		Health:   hB,
		Logf:     quiet,
	})
	if err != nil {
		t.Fatalf("restart over a state dir with agent health: %v", err)
	}
	if !reflect.DeepEqual(hB.restored, want) {
		t.Errorf("restored health = %+v, want %+v", hB.restored, want)
	}
	dB.Stop()

	// A refused restore fails New, prefixed once.
	_, err = New(Config{
		Session:  testSession(t),
		Tick:     time.Hour,
		StateDir: dir,
		Health:   &restoringHealth{err: errors.New("refused")},
		Logf:     quiet,
	})
	if err == nil || err.Error() != "daemon: recover: refused" {
		t.Errorf("refused restore: err = %v, want \"daemon: recover: refused\"", err)
	}
}

// TestSnapshotCadenceValidation: a negative cadence is a config error,
// zero means the default.
func TestSnapshotCadenceValidation(t *testing.T) {
	if _, err := New(Config{Session: testSession(t), Tick: time.Second, SnapshotEvery: -1}); err == nil {
		t.Error("negative SnapshotEvery accepted")
	}
}

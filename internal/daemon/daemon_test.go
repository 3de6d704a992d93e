package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"greenhetero/internal/policy"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

func testSession(t *testing.T) *sim.Session {
	t.Helper()
	return testSessionSeed(t, 7)
}

func testSessionSeed(t *testing.T, seed int64) *sim.Session {
	t.Helper()
	tr, err := solar.DefaultHigh(2200)
	if err != nil {
		t.Fatal(err)
	}
	return sessionFor(t, testRack(t), tr, seed)
}

// testRack is the daemon test rack: 5× E5-2620 and 5× i5-4460.
func testRack(t *testing.T) *server.Rack {
	t.Helper()
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	rack, err := server.NewRack("daemon-test",
		server.Group{Spec: a, Count: 5}, server.Group{Spec: b, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	return rack
}

// sessionFor builds the daemon test session on the given rack and
// solar trace.
func sessionFor(t *testing.T, rack *server.Rack, tr *trace.Trace, seed int64) *sim.Session {
	t.Helper()
	w, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSession(sim.Config{
		Rack:        rack,
		Workload:    w,
		Policy:      policy.Solver{Adaptive: true},
		Solar:       tr,
		Epochs:      96,
		GridBudgetW: 1000,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startDaemon(t *testing.T, tick time.Duration) *Daemon {
	t.Helper()
	d, err := New(Config{Session: testSession(t), Tick: tick, HistoryLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Tick: time.Second}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil session err = %v", err)
	}
	if _, err := New(Config{Session: testSession(t)}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero tick err = %v", err)
	}
	if _, err := New(Config{Session: testSession(t), Tick: time.Second, HistoryLimit: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative limit err = %v", err)
	}
}

func TestStartTwice(t *testing.T) {
	d := startDaemon(t, time.Hour) // never ticks during the test
	if err := d.Start(); err == nil {
		t.Error("second Start should error")
	}
}

// waitForEpochs polls /status until at least n epochs have run.
func waitForEpochs(t *testing.T, ts *httptest.Server, n int) status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Epochs >= n {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("daemon never reached epoch target")
	return status{}
}

func TestHTTPAPIServesLiveState(t *testing.T) {
	d := startDaemon(t, time.Millisecond)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	// Liveness.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	st := waitForEpochs(t, ts, 3)
	if st.Policy != "GreenHetero" || st.Workload != workload.SPECjbb {
		t.Errorf("status labels = %+v", st)
	}
	if st.Last == nil || st.Last.SupplyW < 0 {
		t.Errorf("status last = %+v", st.Last)
	}
	if st.BatterySoC <= 0 || st.BatterySoC > 1 {
		t.Errorf("soc = %v", st.BatterySoC)
	}
	if st.DBEntries != 2 {
		t.Errorf("db entries = %d, want 2", st.DBEntries)
	}
	if st.LastError != "" {
		t.Errorf("unexpected error: %s", st.LastError)
	}

	// History grows and is well-formed JSON.
	resp, err = ts.Client().Get(ts.URL + "/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist []sim.EpochResult
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(hist) < 3 {
		t.Errorf("history = %d entries", len(hist))
	}

	// The database snapshot parses.
	resp, err = ts.Client().Get(ts.URL + "/db")
	if err != nil {
		t.Fatal(err)
	}
	var db struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&db); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(db.Entries) != 2 {
		t.Errorf("db snapshot entries = %d", len(db.Entries))
	}
}

func TestHistoryRingBounded(t *testing.T) {
	d, err := New(Config{Session: testSession(t), Tick: time.Millisecond, HistoryLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	// The ring caps the reported Epochs count at 4, so wait on the last
	// epoch index instead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := waitForEpochs(t, ts, 1)
		if st.Last != nil && st.Last.Epoch >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never passed epoch 5")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := ts.Client().Get(ts.URL + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hist []sim.EpochResult
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) > 4 {
		t.Errorf("ring grew to %d, limit 4", len(hist))
	}
	// The retained entries are the most recent ones.
	if hist[len(hist)-1].Epoch < 5 {
		t.Errorf("ring tail epoch = %d, want recent", hist[len(hist)-1].Epoch)
	}
}

func TestStopTerminatesLoop(t *testing.T) {
	d, err := New(Config{Session: testSession(t), Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		d.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
}

func TestStatusReportsNoErrorOnHealthyRun(t *testing.T) {
	d := startDaemon(t, time.Millisecond)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	st := waitForEpochs(t, ts, 2)
	if st.LastError != "" {
		t.Errorf("healthy run reported error %q", st.LastError)
	}
}

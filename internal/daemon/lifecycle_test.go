package daemon

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"greenhetero/internal/breaker"
	"greenhetero/internal/telemetry"
)

// TestStopWithoutStart: Stop on a never-started daemon must return
// instead of blocking forever on the loop's done channel.
func TestStopWithoutStart(t *testing.T) {
	d, err := New(Config{Session: testSession(t), Tick: time.Second})
	if err != nil {
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
		t.Fatal("Stop without Start deadlocked")
	}
	if err := d.Start(); err == nil {
		t.Error("Start after Stop should error")
	}
}

// TestStopIdempotent: repeated Stop calls must not panic on the stop
// channel.
func TestStopIdempotent(t *testing.T) {
	d, err := New(Config{Session: testSession(t), Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	done := make(chan struct{})
	go func() {
		d.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second Stop blocked")
	}
}

// stubHealth is a fixed HealthSource.
type stubHealth []telemetry.AgentHealth

func (s stubHealth) Health() []telemetry.AgentHealth { return s }

// TestStatusExposesAgentHealth: a configured HealthSource surfaces the
// Monitor's breaker and staleness state in /status.
func TestStatusExposesAgentHealth(t *testing.T) {
	d, err := New(Config{
		Session: testSession(t),
		Tick:    time.Hour, // no ticks needed
		Health: stubHealth{{
			Addr:  "10.0.0.1:7000",
			State: breaker.Open,
			Stale: true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Agents []struct {
			Addr  string `json:"addr"`
			State string `json:"state"`
			Stale bool   `json:"stale"`
		} `json:"agents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Agents) != 1 {
		t.Fatalf("agents = %+v, want one entry", st.Agents)
	}
	a := st.Agents[0]
	if a.Addr != "10.0.0.1:7000" || a.State != "open" || !a.Stale {
		t.Errorf("agent health = %+v", a)
	}
}

package telemetry

import (
	"testing"

	"greenhetero/internal/breaker"
)

// TestRestoreHealthRoundTrip: Health → RestoreHealth into a fresh
// collector over the same addresses reproduces breaker state, counters,
// and staleness.
func TestRestoreHealthRoundTrip(t *testing.T) {
	addrs := []string{"10.0.0.1:7000", "10.0.0.2:7000"}
	snap := []AgentHealth{
		{Addr: addrs[0], State: breaker.Open, ConsecutiveFailures: 4,
			Successes: 10, Failures: 6, Stale: true, LastError: "dial timeout"},
		{Addr: addrs[1], State: breaker.Closed, ConsecutiveFailures: 0,
			Successes: 16, Failures: 0},
	}

	c, err := NewCollector(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreHealth(snap); err != nil {
		t.Fatal(err)
	}
	got := c.Health()
	if len(got) != 2 {
		t.Fatalf("health has %d entries", len(got))
	}
	for i := range snap {
		if got[i].Addr != snap[i].Addr ||
			got[i].State != snap[i].State ||
			got[i].ConsecutiveFailures != snap[i].ConsecutiveFailures ||
			got[i].Successes != snap[i].Successes ||
			got[i].Failures != snap[i].Failures ||
			got[i].Stale != snap[i].Stale ||
			got[i].LastError != snap[i].LastError {
			t.Errorf("agent %d: got %+v, want %+v", i, got[i], snap[i])
		}
	}
}

// TestRestoreHealthDuplicateAddrs: duplicate addresses restore in
// occurrence order, not all onto the first match.
func TestRestoreHealthDuplicateAddrs(t *testing.T) {
	addrs := []string{"10.0.0.1:7000", "10.0.0.1:7000"}
	c, err := NewCollector(addrs)
	if err != nil {
		t.Fatal(err)
	}
	snap := []AgentHealth{
		{Addr: addrs[0], State: breaker.Open, ConsecutiveFailures: 3, Failures: 3},
		{Addr: addrs[1], State: breaker.Closed, Successes: 5},
	}
	if err := c.RestoreHealth(snap); err != nil {
		t.Fatal(err)
	}
	got := c.Health()
	if got[0].State != breaker.Open || got[1].State != breaker.Closed {
		t.Errorf("duplicate addrs restored out of order: %+v", got)
	}
}

// TestRestoreHealthTopologyChange: entries for addresses the collector
// no longer watches are skipped, never an error — a redeployed rack must
// still recover.
func TestRestoreHealthTopologyChange(t *testing.T) {
	c, err := NewCollector([]string{"10.0.0.9:7000"})
	if err != nil {
		t.Fatal(err)
	}
	snap := []AgentHealth{
		{Addr: "10.0.0.1:7000", State: breaker.Open, ConsecutiveFailures: 2, Failures: 2},
		{Addr: "10.0.0.9:7000", State: breaker.HalfOpen, ConsecutiveFailures: 1, Failures: 1},
	}
	if err := c.RestoreHealth(snap); err != nil {
		t.Fatal(err)
	}
	got := c.Health()
	if len(got) != 1 || got[0].State != breaker.HalfOpen {
		t.Errorf("health = %+v", got)
	}
}

// TestRestoreHealthRejections: invalid snapshots are refused before any
// agent is mutated.
func TestRestoreHealthRejections(t *testing.T) {
	c, err := NewCollector([]string{"10.0.0.1:7000"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreHealth([]AgentHealth{{Addr: "10.0.0.1:7000", State: breaker.State(99)}}); err == nil {
		t.Error("out-of-range breaker state accepted")
	}
	if err := c.RestoreHealth([]AgentHealth{{Addr: "10.0.0.1:7000", ConsecutiveFailures: -1}}); err == nil {
		t.Error("negative consecutive failures accepted")
	}
	if got := c.Health()[0]; got.State != breaker.Closed || got.Failures != 0 {
		t.Errorf("failed restore mutated the collector: %+v", got)
	}
}

package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greenhetero/internal/breaker"
	"greenhetero/internal/faultnet"
)

// fastRetry keeps backoff sleeps negligible so fault tests stay quick.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{Attempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
}

// proxied starts an agent behind a faultnet proxy and returns the proxy.
func proxied(t *testing.T, s Sampler, sched *faultnet.Schedule) *faultnet.Proxy {
	t.Helper()
	a := startAgent(t, s)
	p, err := faultnet.New(a.Addr(), sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// TestBackoffDeterministic pins the seeded jitter: two collectors built
// from the same config produce identical backoff schedules, and a
// different seed produces a different one.
func TestBackoffDeterministic(t *testing.T) {
	build := func(seed int64) *Collector {
		c, err := NewCollector([]string{"127.0.0.1:9"},
			WithRetry(RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, other := build(7), build(7), build(8)
	var sameA, sameB, diff []time.Duration
	for try := 1; try <= 8; try++ {
		sameA = append(sameA, a.backoff(a.agents[0], try))
		sameB = append(sameB, b.backoff(b.agents[0], try))
		diff = append(diff, other.backoff(other.agents[0], try))
	}
	for i := range sameA {
		if sameA[i] != sameB[i] {
			t.Errorf("draw %d: %v != %v with equal seeds", i, sameA[i], sameB[i])
		}
		// Jitter stays within [50%, 100%] of the exponential delay.
		base := 10 * time.Millisecond << i
		if base > 200*time.Millisecond {
			base = 200 * time.Millisecond
		}
		if sameA[i] < base/2 || sameA[i] > base {
			t.Errorf("draw %d = %v outside [%v, %v]", i, sameA[i], base/2, base)
		}
	}
	if fmt.Sprint(sameA) == fmt.Sprint(diff) {
		t.Error("different seeds produced identical jitter streams")
	}
}

// TestCollectRetriesTransientFault injects a single connection reset:
// the collector must redial and succeed within its retry budget, with
// no stale flag and a closed breaker.
func TestCollectRetriesTransientFault(t *testing.T) {
	p := proxied(t, fixedSampler("n1", 100, 5), faultnet.NewFixedSchedule(faultnet.Reset))
	c, err := NewCollector([]string{p.Addr()}, WithRetry(fastRetry(3)), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Err != nil || r.Stale || r.Reading.NodeID != "n1" {
		t.Errorf("result = %+v, want fresh n1 reading", r)
	}
	if got := p.Exchanges(); got != 2 {
		t.Errorf("exchanges = %d, want 2 (reset + retried success)", got)
	}
	h := c.Health()[0]
	if h.State != breaker.Closed || h.Successes != 1 || h.ConsecutiveFailures != 0 {
		t.Errorf("health = %+v, want closed with one success", h)
	}
}

// TestCollectSurvivesGarbageResponse: a garbled response must be
// treated as a transport failure — connection dropped, exchange
// retried — not parsed or trusted.
func TestCollectSurvivesGarbageResponse(t *testing.T) {
	p := proxied(t, fixedSampler("n1", 100, 5), faultnet.NewFixedSchedule(faultnet.Garbage))
	c, err := NewCollector([]string{p.Addr()}, WithRetry(fastRetry(3)), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Err != nil || r.Stale || r.Reading.NodeID != "n1" {
		t.Errorf("result = %+v, want fresh reading after garbage retry", r)
	}
}

// TestBreakerLifecycle drives the full state machine with a fixed fault
// schedule: closed → (threshold failures) → open → cooldown skips with
// no network traffic → half-open probe → closed.
func TestBreakerLifecycle(t *testing.T) {
	p := proxied(t, fixedSampler("n1", 100, 5),
		faultnet.NewFixedSchedule(faultnet.Reset, faultnet.Reset))
	c, err := NewCollector([]string{p.Addr()},
		WithRetry(fastRetry(1)), // one attempt per epoch so failures count 1:1
		WithBreaker(breaker.Config{FailureThreshold: 2, CooldownEpochs: 2}),
		WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	step := func(epoch int, wantState breaker.State, wantExchanges int64) {
		t.Helper()
		// Every failed epoch of a single-agent collector is a majority
		// failure; the breaker bookkeeping is what this test pins.
		_, _ = c.Collect(ctx)
		if h := c.Health()[0]; h.State != wantState {
			t.Errorf("epoch %d: state = %v, want %v", epoch, h.State, wantState)
		}
		if got := p.Exchanges(); got != wantExchanges {
			t.Errorf("epoch %d: exchanges = %d, want %d", epoch, got, wantExchanges)
		}
	}

	step(1, breaker.Closed, 1) // first reset: one failure, under threshold
	step(2, breaker.Open, 2)   // second reset trips the breaker
	step(3, breaker.Open, 2)   // cooling: no network traffic
	step(4, breaker.Open, 2)   // still cooling
	// Cooldown elapsed: a single half-open probe hits the (now healthy)
	// agent and closes the breaker.
	results, err := c.Collect(ctx)
	if err != nil {
		t.Fatalf("probe epoch: %v", err)
	}
	if r := results[0]; r.Err != nil || r.Stale || r.Reading.NodeID != "n1" {
		t.Errorf("probe result = %+v, want fresh reading", r)
	}
	if h := c.Health()[0]; h.State != breaker.Closed || h.ConsecutiveFailures != 0 {
		t.Errorf("post-probe health = %+v, want closed", h)
	}
	if got := p.Exchanges(); got != 3 {
		t.Errorf("exchanges = %d, want 3 (probe was a single attempt)", got)
	}
}

// TestBreakerFailedProbeReopens: a half-open probe that fails must
// reopen the breaker and restart the cooldown.
func TestBreakerFailedProbeReopens(t *testing.T) {
	p := proxied(t, fixedSampler("n1", 100, 5),
		faultnet.NewFixedSchedule(faultnet.Reset, faultnet.Reset)) // trip + failed probe
	c, err := NewCollector([]string{p.Addr()},
		WithRetry(fastRetry(1)),
		WithBreaker(breaker.Config{FailureThreshold: 1, CooldownEpochs: 1}),
		WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, _ = c.Collect(ctx) // trip: open
	_, _ = c.Collect(ctx) // cooldown skip
	_, _ = c.Collect(ctx) // half-open probe hits the second reset
	if h := c.Health()[0]; h.State != breaker.Open {
		t.Errorf("state after failed probe = %v, want open", h.State)
	}
	_, _ = c.Collect(ctx) // cooldown again
	results, err := c.Collect(ctx)
	if err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if r := results[0]; r.Err != nil || r.Stale {
		t.Errorf("second probe result = %+v, want fresh", r)
	}
}

// TestDegradedModeStaleMinority: when a minority of agents fails after
// a healthy epoch, Collect substitutes last-known-good readings flagged
// Stale and reports no error.
func TestDegradedModeStaleMinority(t *testing.T) {
	a1 := startAgent(t, fixedSampler("n1", 100, 1))
	a2 := startAgent(t, fixedSampler("n2", 200, 2))
	a3 := startAgent(t, fixedSampler("n3", 300, 3))
	c, err := NewCollector([]string{a1.Addr(), a2.Addr(), a3.Addr()},
		WithRetry(fastRetry(1)), WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Collect(ctx); err != nil {
		t.Fatalf("healthy epoch: %v", err)
	}
	if err := a3.Close(); err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(ctx)
	if err != nil {
		t.Fatalf("degraded epoch: %v", err)
	}
	for i, want := range []struct {
		node  string
		stale bool
	}{{"n1", false}, {"n2", false}, {"n3", true}} {
		r := results[i]
		if r.Err != nil {
			t.Errorf("agent %d: err = %v", i, r.Err)
			continue
		}
		if r.Reading.NodeID != want.node || r.Stale != want.stale {
			t.Errorf("agent %d = {node %q, stale %v}, want {%q, %v}",
				i, r.Reading.NodeID, r.Stale, want.node, want.stale)
		}
	}
	health := c.Health()
	if health[2].Stale != true || health[0].Stale || health[1].Stale {
		t.Errorf("health stale flags = [%v %v %v], want [false false true]",
			health[0].Stale, health[1].Stale, health[2].Stale)
	}
}

// TestMajorityFailureStillErrors: stale fallbacks cannot mask a
// majority outage — Collect must return ErrMajorityFailed while still
// exposing the per-agent results.
func TestMajorityFailureStillErrors(t *testing.T) {
	a1 := startAgent(t, fixedSampler("n1", 100, 1))
	a2 := startAgent(t, fixedSampler("n2", 200, 2))
	a3 := startAgent(t, fixedSampler("n3", 300, 3))
	c, err := NewCollector([]string{a1.Addr(), a2.Addr(), a3.Addr()},
		WithRetry(fastRetry(1)), WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Collect(ctx); err != nil {
		t.Fatalf("healthy epoch: %v", err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a3.Close(); err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(ctx)
	if !errors.Is(err, ErrMajorityFailed) {
		t.Fatalf("err = %v, want ErrMajorityFailed", err)
	}
	if len(results) != 3 {
		t.Fatalf("results should still be returned, got %d", len(results))
	}
	if !results[1].Stale || !results[2].Stale {
		t.Errorf("dead agents should carry stale readings: %+v, %+v", results[1], results[2])
	}
}

// countingServer is a bare-wire agent that counts TCP accepts, proving
// the collector reuses its persistent connection across epochs.
func countingServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				enc := json.NewEncoder(c)
				for sc.Scan() {
					r := Reading{NodeID: "counted", PowerW: 1}
					if err := enc.Encode(response{OK: true, Reading: &r}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &accepts
}

// TestPersistentConnectionReuse: five epochs plus a SetTarget must ride
// one TCP connection.
func TestPersistentConnectionReuse(t *testing.T) {
	addr, accepts := countingServer(t)
	c, err := NewCollector([]string{addr}, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for epoch := 0; epoch < 5; epoch++ {
		if _, err := c.Collect(ctx); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	if err := c.SetTarget(ctx, addr, 120); err != nil {
		t.Fatal(err)
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server accepted %d connections, want 1 (persistent reuse)", got)
	}
}

// TestCollectorSetTargetRetries: enforcement traffic gets the same
// retry treatment as sampling.
func TestCollectorSetTargetRetries(t *testing.T) {
	s := &setSampler{}
	p := proxied(t, s, faultnet.NewFixedSchedule(faultnet.Reset))
	c, err := NewCollector([]string{p.Addr()}, WithRetry(fastRetry(3)), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.SetTarget(ctx, p.Addr(), 150); err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reading.PowerW != 150 {
		t.Errorf("node at %v W, want 150", results[0].Reading.PowerW)
	}
	if err := c.SetTarget(ctx, "127.0.0.1:1", 100); err == nil ||
		!strings.Contains(err.Error(), "not in collector") {
		t.Errorf("unknown addr err = %v", err)
	}
}

// TestSetTargetRejectsNonFinite covers all three layers: the one-shot
// helper, the collector path, and the agent's own wire-side check.
func TestSetTargetRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := SetTarget(context.Background(), "127.0.0.1:1", bad, time.Second); err == nil ||
			!strings.Contains(err.Error(), "non-finite") {
			t.Errorf("SetTarget(%v) err = %v, want non-finite rejection", bad, err)
		}
	}
	c, err := NewCollector([]string{"127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTarget(context.Background(), "127.0.0.1:1", math.NaN()); err == nil ||
		!strings.Contains(err.Error(), "non-finite") {
		t.Errorf("Collector.SetTarget(NaN) err = %v, want non-finite rejection", err)
	}
	// Agent side: a hand-built "set" request with a non-finite target is
	// rejected before it reaches the node's Setter.
	a := &Agent{sampler: &setSampler{}}
	if resp := a.handle(request{Op: "set", TargetW: math.NaN()}); resp.OK ||
		!strings.Contains(resp.Error, "non-finite") {
		t.Errorf("agent handle(set NaN) = %+v, want non-finite rejection", resp)
	}
}

// TestAgentOversizedLine: an over-limit request line draws a structured
// error response before the agent closes the connection, and the agent
// keeps serving other clients.
func TestAgentOversizedLine(t *testing.T) {
	a := startAgent(t, fixedSampler("x", 1, 1))
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, MaxLineBytes+16)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no structured error before close: %v", err)
	}
	var resp response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("error line not json: %v (%q)", err, line)
	}
	if resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Errorf("response = %+v, want line-limit error", resp)
	}
	if resp, err := roundTrip(context.Background(), a.Addr(), request{Op: "ping"}, time.Second); err != nil || !resp.OK {
		t.Errorf("agent dead after oversized line: %+v, %v", resp, err)
	}
}

// TestCollectWithRandomDropSchedule runs many epochs through a seeded
// 20%-drop proxy: with retries and degraded mode, every epoch must
// produce a usable reading and the run must be reproducible.
func TestCollectWithRandomDropSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("drop faults spend real timeouts")
	}
	run := func(seed int64) (stale int, faults int64) {
		sched, err := faultnet.NewSchedule(seed, faultnet.Rates{Drop: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		p := proxied(t, fixedSampler("n1", 100, 5), sched)
		healthy := startAgent(t, fixedSampler("n2", 200, 6))
		c, err := NewCollector([]string{p.Addr(), healthy.Addr()},
			WithRetry(fastRetry(2)),
			WithTimeout(150*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for epoch := 0; epoch < 15; epoch++ {
			results, err := c.Collect(context.Background())
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("seed %d epoch %d agent %d: %v", seed, epoch, i, r.Err)
				}
				if r.Stale {
					stale++
				}
			}
		}
		return stale, p.Count(faultnet.Drop)
	}
	stale, drops := run(11)
	if drops == 0 {
		t.Error("schedule injected no drops; test exercised nothing")
	}
	stale2, drops2 := run(11)
	if stale2 != stale || drops2 != drops {
		t.Errorf("same seed diverged: stale %d vs %d, drops %d vs %d", stale, stale2, drops, drops2)
	}
}

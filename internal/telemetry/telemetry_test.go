package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startAgent(t *testing.T, s Sampler) *Agent {
	t.Helper()
	a, err := NewAgent("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close agent: %v", err)
		}
	})
	return a
}

func fixedSampler(id string, powerW, perf float64) Sampler {
	return SamplerFunc(func() (Reading, error) {
		return Reading{NodeID: id, PowerW: powerW, Perf: perf, UnixMillis: time.Now().UnixMilli()}, nil
	})
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent("127.0.0.1:0", nil); err == nil {
		t.Error("nil sampler should error")
	}
	if _, err := NewAgent("256.256.256.256:0", fixedSampler("x", 1, 1)); err == nil {
		t.Error("bad addr should error")
	}
}

func TestCollectSingleAgent(t *testing.T) {
	a := startAgent(t, fixedSampler("node-1", 120.5, 987))
	c, err := NewCollector([]string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Reading.NodeID != "node-1" || r.Reading.PowerW != 120.5 || r.Reading.Perf != 987 {
		t.Errorf("reading = %+v", r.Reading)
	}
}

func TestCollectManyAgents(t *testing.T) {
	const n = 8
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		a := startAgent(t, fixedSampler(fmt.Sprintf("node-%d", i), float64(100+i), float64(i)))
		addrs[i] = a.Addr()
	}
	c, err := NewCollector(addrs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("agent %d: %v", i, r.Err)
			continue
		}
		if want := fmt.Sprintf("node-%d", i); r.Reading.NodeID != want {
			t.Errorf("result %d out of order: %q", i, r.Reading.NodeID)
		}
	}
}

func TestCollectAgentFailure(t *testing.T) {
	healthy := startAgent(t, fixedSampler("ok", 1, 1))
	failing := startAgent(t, SamplerFunc(func() (Reading, error) {
		return Reading{}, errors.New("sensor offline")
	}))
	c, err := NewCollector([]string{healthy.Addr(), failing.Addr()}, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("healthy agent failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "sensor offline") {
		t.Errorf("failing agent err = %v", results[1].Err)
	}
}

func TestCollectDeadAgent(t *testing.T) {
	a := startAgent(t, fixedSampler("x", 1, 1))
	addr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector([]string{addr}, WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// A single dead agent with no last-known-good reading is a majority
	// failure: the rack is unobservable.
	results, err := c.Collect(context.Background())
	if !errors.Is(err, ErrMajorityFailed) {
		t.Errorf("err = %v, want ErrMajorityFailed", err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Errorf("dead agent should still report its error result, got %+v", results)
	}
}

func TestCollectContextCancelled(t *testing.T) {
	slow := startAgent(t, SamplerFunc(func() (Reading, error) {
		time.Sleep(2 * time.Second)
		return Reading{NodeID: "slow"}, nil
	}))
	c, err := NewCollector([]string{slow.Addr()}, WithTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Collect(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil); !errors.Is(err, ErrNoAgents) {
		t.Errorf("err = %v, want ErrNoAgents", err)
	}
}

func TestPing(t *testing.T) {
	a := startAgent(t, fixedSampler("x", 1, 1))
	resp, err := roundTrip(context.Background(), a.Addr(), request{Op: "ping"}, time.Second)
	if err != nil || !resp.OK {
		t.Errorf("ping: %+v, %v", resp, err)
	}
	if _, err := roundTrip(context.Background(), "127.0.0.1:1", request{Op: "ping"}, 200*time.Millisecond); err == nil {
		t.Error("ping to closed port should fail")
	}
}

func TestAgentCloseIdempotent(t *testing.T) {
	a, err := NewAgent("127.0.0.1:0", fixedSampler("x", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestAgentConcurrentSamples(t *testing.T) {
	var calls atomic.Int64
	a := startAgent(t, SamplerFunc(func() (Reading, error) {
		calls.Add(1)
		return Reading{NodeID: "n"}, nil
	}))
	c, err := NewCollector([]string{a.Addr(), a.Addr(), a.Addr(), a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		results, err := c.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if got := calls.Load(); got != 20 {
		t.Errorf("sampler calls = %d, want 20", got)
	}
}

// setSampler is a Sampler that also accepts power targets.
type setSampler struct {
	mu      sync.Mutex
	targetW float64
}

func (s *setSampler) Sample() (Reading, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Reading{NodeID: "settable", PowerW: s.targetW}, nil
}

func (s *setSampler) SetTarget(powerW float64) error {
	if powerW > 1000 {
		return errors.New("target above breaker rating")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.targetW = powerW
	return nil
}

func TestSetTarget(t *testing.T) {
	s := &setSampler{}
	a := startAgent(t, s)
	ctx := context.Background()
	if err := SetTarget(ctx, a.Addr(), 150, time.Second); err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector([]string{a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reading.PowerW != 150 {
		t.Errorf("node at %v W, want 150", results[0].Reading.PowerW)
	}
	// The node's own validation propagates over the wire.
	if err := SetTarget(ctx, a.Addr(), 5000, time.Second); err == nil ||
		!strings.Contains(err.Error(), "breaker") {
		t.Errorf("err = %v, want node validation error", err)
	}
}

func TestSetTargetOnPureSensor(t *testing.T) {
	a := startAgent(t, fixedSampler("sensor", 1, 1))
	err := SetTarget(context.Background(), a.Addr(), 100, time.Second)
	if err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Errorf("err = %v, want rejection", err)
	}
}

// TestAgentSurvivesGarbage sends raw junk at the agent: it must reply
// with an error line (or drop the connection) and keep serving.
func TestAgentSurvivesGarbage(t *testing.T) {
	a := startAgent(t, fixedSampler("x", 1, 1))
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("THIS IS NOT JSON\n{\"op\":\"frobnicate\"}\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("no response line %d", i)
		}
		var resp map[string]any
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("response %d not json: %v", i, err)
		}
		if ok, _ := resp["ok"].(bool); ok {
			t.Errorf("response %d claims ok for garbage", i)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	// The agent still serves real clients.
	if resp, err := roundTrip(context.Background(), a.Addr(), request{Op: "ping"}, time.Second); err != nil || !resp.OK {
		t.Errorf("agent dead after garbage: %+v, %v", resp, err)
	}
}

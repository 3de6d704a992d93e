// Package telemetry implements the distributed Monitor plumbing of the
// GreenHetero controller (paper §IV-A, Fig. 4): per-node sensor agents
// that export power and performance readings, and a collector the
// rack-level controller uses to gather them each epoch.
//
// The wire protocol is newline-delimited JSON over TCP — one request
// object per line, one response object per line — matching the paper's
// "measurements … gathered by the distributed sensors". The same
// controller logic runs against in-process samplers in simulation and
// against live agents in examples/livetelemetry.
//
// The collector is built for lossy networks: it keeps one persistent
// connection per agent (dialed lazily, transparently redialed on
// error), retries failed exchanges with seeded exponential backoff, and
// tracks per-agent health behind a circuit breaker. When a minority of
// agents fail an epoch it degrades gracefully, serving each failed
// agent's last-known-good reading flagged Stale; only a majority
// failure aborts the collection.
package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"greenhetero/internal/breaker"
	"greenhetero/internal/runner"
)

// MaxLineBytes caps one wire line (request or response). Oversized
// lines are a protocol violation: agents reply with a structured error
// and close; collectors treat them as a transport failure.
const MaxLineBytes = 1 << 20

// Reading is one sensor observation from a node.
type Reading struct {
	// NodeID identifies the reporting node (e.g. "rack1/e5-2620/3").
	NodeID string `json:"nodeId"`
	// PowerW is the node's measured power draw.
	PowerW float64 `json:"powerW"`
	// Perf is the node's measured application throughput.
	Perf float64 `json:"perf"`
	// UnixMillis timestamps the observation.
	UnixMillis int64 `json:"unixMillis"`
}

// Sampler produces readings for an agent. Implementations must be safe
// for concurrent use.
type Sampler interface {
	Sample() (Reading, error)
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func() (Reading, error)

// Sample implements Sampler.
func (f SamplerFunc) Sample() (Reading, error) { return f() }

// Setter receives enforcement commands: the SPC's per-server power
// budget, which the node maps to a DVFS state (§IV-B.4). Agents whose
// sampler also implements Setter accept the "set" op; sensors that only
// measure reject it.
type Setter interface {
	SetTarget(powerW float64) error
}

// request is the wire request.
type request struct {
	Op string `json:"op"` // "sample", "ping", or "set"
	// TargetW carries the power budget for "set".
	TargetW float64 `json:"targetW,omitempty"`
}

// response is the wire response.
type response struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Reading *Reading `json:"reading,omitempty"`
}

// Agent is one node's sensor endpoint.
type Agent struct {
	sampler Sampler
	ln      net.Listener

	mu sync.Mutex
	// ghlint:guardedby mu
	conns map[net.Conn]struct{}
	// ghlint:guardedby mu
	closed bool

	wg sync.WaitGroup
}

// NewAgent starts an agent listening on addr ("127.0.0.1:0" for an
// ephemeral test port). Close must be called to release the listener.
func NewAgent(addr string, sampler Sampler) (*Agent, error) {
	if sampler == nil {
		return nil, errors.New("telemetry: nil sampler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen: %w", err)
	}
	a := &Agent{
		sampler: sampler,
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
	}
	a.wg.Add(1)
	go a.acceptLoop()
	return a, nil
}

// Addr returns the agent's listen address.
func (a *Agent) Addr() string { return a.ln.Addr().String() }

// Close stops the agent and waits for its goroutines to exit.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	for c := range a.conns {
		_ = c.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return // listener closed
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			_ = conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()

		a.wg.Add(1)
		go a.serve(conn)
	}
}

func (a *Agent) serve(conn net.Conn) {
	defer a.wg.Done()
	defer func() {
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		_ = conn.Close()
	}()

	sc := bufio.NewScanner(conn)
	// Bound the per-line buffer explicitly: the default 64 KiB token cap
	// would otherwise kill the connection silently on an oversized line.
	sc.Buffer(make([]byte, 0, 4096), MaxLineBytes)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		var req request
		var resp response
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			resp = response{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = a.handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	// An over-limit line is a protocol violation, not a clean
	// disconnect: reply with a structured error so the client can tell
	// the difference, then close.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		_ = enc.Encode(response{Error: fmt.Sprintf("request line exceeds %d bytes", MaxLineBytes)})
	}
}

// handle executes one decoded request.
func (a *Agent) handle(req request) response {
	switch req.Op {
	case "ping":
		return response{OK: true}
	case "sample":
		r, err := a.sampler.Sample()
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, Reading: &r}
	case "set":
		if math.IsNaN(req.TargetW) || math.IsInf(req.TargetW, 0) {
			return response{Error: fmt.Sprintf("non-finite power target %v", req.TargetW)}
		}
		setter, ok := a.sampler.(Setter)
		if !ok {
			return response{Error: "node does not accept power targets"}
		}
		if err := setter.SetTarget(req.TargetW); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// RetryPolicy bounds how the collector retries a failed exchange.
// Transport failures (dial, IO, decode) are retried with exponential
// backoff; application-level errors reported by the agent are not — the
// agent answered, so retrying cannot change the outcome this epoch.
type RetryPolicy struct {
	// Attempts is the total tries per exchange (first try included).
	// Zero means the default 3; 1 disables retries.
	Attempts int
	// BaseDelay is the backoff before the first retry (default 10 ms);
	// each subsequent retry doubles it up to MaxDelay (default 200 ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the backoff jitter. Per-agent jitter streams are
	// derived with runner.DeriveSeed(Seed, agent key), so fan-out retry
	// timing is reproducible and never read from the wall clock.
	Seed int64
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 200 * time.Millisecond
	}
	return p
}

// defaultAgentThreshold is the consecutive failed exchanges that open
// an agent's breaker when the configured threshold is zero.
const defaultAgentThreshold = 5

// AgentHealth is one agent's health snapshot.
type AgentHealth struct {
	Addr                string        `json:"addr"`
	State               breaker.State `json:"state"`
	ConsecutiveFailures int           `json:"consecutiveFailures"`
	Successes           uint64        `json:"successes"`
	Failures            uint64        `json:"failures"`
	// Stale reports whether the agent's latest Collect was served from
	// its last-known-good reading instead of a fresh sample.
	Stale     bool   `json:"stale"`
	LastError string `json:"lastError,omitempty"`
}

// agentState owns everything mutable about one agent: its persistent
// connection, its breaker, its jitter stream, and its last-known-good
// reading. The mutex serializes exchanges per agent.
type agentState struct {
	addr string // immutable after construction; the one unguarded field

	mu sync.Mutex
	// ghlint:guardedby mu
	rng *rand.Rand // backoff jitter, seeded via runner.DeriveSeed

	// ghlint:guardedby mu
	conn net.Conn
	// ghlint:guardedby mu
	rd *bufio.Reader

	// ghlint:guardedby mu
	brk breaker.Breaker
	// ghlint:guardedby mu
	succTotal uint64
	// ghlint:guardedby mu
	failTotal uint64
	// ghlint:guardedby mu
	lastErr error

	// ghlint:guardedby mu
	lastGood Reading
	// ghlint:guardedby mu
	hasGood bool
	// ghlint:guardedby mu
	staleLast bool
}

// closeConnLocked drops the persistent connection.
//
// ghlint:holds a.mu
func (a *agentState) closeConnLocked() {
	if a.conn != nil {
		_ = a.conn.Close()
		a.conn = nil
		a.rd = nil
	}
}

// Collector gathers readings from a set of agents.
type Collector struct {
	agents  []*agentState
	timeout time.Duration
	retry   RetryPolicy
	breaker breaker.Config
}

// CollectorOption configures a Collector.
type CollectorOption func(*Collector)

// WithTimeout sets the per-exchange dial/IO timeout (default 2 s).
func WithTimeout(d time.Duration) CollectorOption {
	return func(c *Collector) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithRetry sets the retry policy (zero fields take defaults).
func WithRetry(p RetryPolicy) CollectorOption {
	return func(c *Collector) { c.retry = p.withDefaults() }
}

// WithBreaker sets the per-agent circuit-breaker configuration (zero
// fields take defaults: threshold 5, cooldown 2 Collect epochs).
func WithBreaker(b breaker.Config) CollectorOption {
	return func(c *Collector) { c.breaker = b }
}

// ErrNoAgents is returned when a collector is built without addresses.
var ErrNoAgents = errors.New("telemetry: no agent addresses")

// ErrMajorityFailed is returned by Collect when more than half the
// agents failed their fresh sample this epoch: too little of the rack
// is observable to allocate against, stale or not.
var ErrMajorityFailed = errors.New("telemetry: majority of agents failed")

// ErrCircuitOpen reports an exchange skipped because the agent's
// breaker is open and still cooling down.
var ErrCircuitOpen = errors.New("telemetry: circuit open")

// NewCollector builds a collector over the given agent addresses.
func NewCollector(addrs []string, opts ...CollectorOption) (*Collector, error) {
	if len(addrs) == 0 {
		return nil, ErrNoAgents
	}
	c := &Collector{
		timeout: 2 * time.Second,
		retry:   RetryPolicy{}.withDefaults(),
	}
	for _, o := range opts {
		o(c)
	}
	c.agents = make([]*agentState, len(addrs))
	for i, addr := range addrs {
		// The jitter stream is keyed by (seed, index, addr): duplicate
		// addresses get decorrelated streams, and the same config
		// always reproduces the same backoff schedule.
		seed := runner.DeriveSeed(c.retry.Seed, fmt.Sprintf("%d/%s", i, addr))
		c.agents[i] = &agentState{
			addr: addr,
			rng:  rand.New(rand.NewSource(seed)),
			brk:  breaker.New(c.breaker, defaultAgentThreshold),
		}
	}
	return c, nil
}

// Close drops every persistent agent connection. The collector remains
// usable; connections are redialed on demand.
func (c *Collector) Close() error {
	for _, a := range c.agents {
		a.mu.Lock()
		a.closeConnLocked()
		a.mu.Unlock()
	}
	return nil
}

// Health snapshots per-agent health, in address order.
func (c *Collector) Health() []AgentHealth {
	out := make([]AgentHealth, len(c.agents))
	for i, a := range c.agents {
		a.mu.Lock()
		h := AgentHealth{
			Addr:                a.addr,
			State:               a.brk.State(),
			ConsecutiveFailures: a.brk.Failures(),
			Successes:           a.succTotal,
			Failures:            a.failTotal,
			Stale:               a.staleLast,
		}
		if a.lastErr != nil {
			h.LastError = a.lastErr.Error()
		}
		a.mu.Unlock()
		out[i] = h
	}
	return out
}

// RestoreHealth re-seeds per-agent health from a persisted snapshot
// (daemon crash recovery): breaker position, failure counters, and the
// staleness flag are matched to agents by address, in occurrence order
// for duplicate addresses. Entries for unknown addresses are skipped —
// a topology change between runs must not block recovery — and agents
// without an entry keep their zero (closed) state. The open-breaker
// cooldown clock restarts at zero: after a restart an open breaker
// waits one full cooldown before probing, which errs toward caution
// rather than inheriting a stale countdown. Last-known-good readings
// are not persisted, so a restored agent serves no stale reading until
// it has a fresh one. Validation happens before anything is applied.
func (c *Collector) RestoreHealth(snap []AgentHealth) error {
	for i, h := range snap {
		if h.State < breaker.Closed || h.State > breaker.HalfOpen {
			return fmt.Errorf("telemetry: restore health: entry %d (%s): unknown breaker state %d", i, h.Addr, h.State)
		}
		if h.ConsecutiveFailures < 0 {
			return fmt.Errorf("telemetry: restore health: entry %d (%s): negative consecutive failures %d", i, h.Addr, h.ConsecutiveFailures)
		}
	}
	// Match by address in occurrence order (duplicate addresses pair
	// first-to-first, second-to-second).
	byAddr := make(map[string][]*agentState, len(c.agents))
	for _, a := range c.agents {
		byAddr[a.addr] = append(byAddr[a.addr], a)
	}
	for _, h := range snap {
		q := byAddr[h.Addr]
		if len(q) == 0 {
			continue
		}
		a := q[0]
		byAddr[h.Addr] = q[1:]
		a.mu.Lock()
		a.brk.Restore(h.State, h.ConsecutiveFailures)
		a.succTotal = h.Successes
		a.failTotal = h.Failures
		a.staleLast = h.Stale
		a.lastErr = nil
		if h.LastError != "" {
			a.lastErr = errors.New(h.LastError)
		}
		a.mu.Unlock()
	}
	return nil
}

// Result pairs an agent address with its reading or error.
type Result struct {
	Addr    string
	Reading Reading
	// Err is set when no reading — fresh or last-known-good — is
	// available for the agent this epoch.
	Err error
	// Stale marks a degraded reading: the fresh sample failed and
	// Reading holds the agent's last-known-good observation.
	Stale bool
}

// failedFresh reports whether the agent's fresh sample failed this
// epoch (the degraded and errored cases both imply it).
func (r Result) failedFresh() bool { return r.Stale || r.Err != nil }

// Collect polls every agent concurrently and returns one result per
// agent, in address order. Failed agents are retried per the retry
// policy; agents that still fail are served from last-known-good
// readings flagged Stale (degraded mode). Collect itself fails only
// when a strict majority of agents failed their fresh sample — the rack
// is effectively unobservable — or on context cancellation; in the
// majority case the per-agent results are still returned for
// inspection.
func (c *Collector) Collect(ctx context.Context) ([]Result, error) {
	results := make([]Result, len(c.agents))
	var wg sync.WaitGroup
	for i, a := range c.agents {
		i, a := i, a
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.collectOne(ctx, a)
		}()
	}
	done := make(chan struct{}) // ghlint:unbounded close-only completion signal; closed when the WaitGroup drains
	go func() {
		defer close(done)
		wg.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Results are abandoned; goroutines unwind on their own
		// deadlines (each exchange has c.timeout, and retries stop at
		// context cancellation).
		<-done
		return nil, fmt.Errorf("telemetry: collect: %w", ctx.Err())
	}

	failed := 0
	var firstErr error
	for _, r := range results {
		if r.failedFresh() {
			failed++
			if firstErr == nil {
				if r.Err != nil {
					firstErr = r.Err
				} else {
					firstErr = fmt.Errorf("agent %s: stale", r.Addr)
				}
			}
		}
	}
	if failed*2 > len(results) {
		return results, fmt.Errorf("%w: %d/%d (first: %v)", ErrMajorityFailed, failed, len(results), firstErr)
	}
	return results, nil
}

// collectOne runs one agent's epoch: breaker bookkeeping, the sampling
// exchange with retries, and degraded-mode fallback.
func (c *Collector) collectOne(ctx context.Context, a *agentState) Result {
	a.mu.Lock()
	defer a.mu.Unlock()

	if !a.brk.Allow() {
		// Still cooling: skip the network entirely.
		a.staleLast = a.hasGood
		cd := a.brk.Config().CooldownEpochs
		return c.degraded(a, fmt.Errorf("%w: %s (%d/%d cooldown epochs)",
			ErrCircuitOpen, a.addr, cd-a.brk.CooldownLeft(), cd))
	}
	attempts := c.retry.Attempts
	if a.brk.State() == breaker.HalfOpen {
		attempts = 1 // a single probe, no retries
	}
	reading, err := c.exchangeLocked(ctx, a, request{Op: "sample"}, attempts)
	if err != nil {
		a.brk.Fail()
		a.failTotal++
		a.lastErr = err
		a.staleLast = a.hasGood
		return c.degraded(a, err)
	}
	a.brk.Succeed()
	a.succTotal++
	a.lastErr = nil
	a.lastGood = reading
	a.hasGood = true
	a.staleLast = false
	return Result{Addr: a.addr, Reading: reading}
}

// degraded builds the failed-agent result: last-known-good flagged
// Stale when available, otherwise the error itself.
//
// ghlint:holds a.mu
func (c *Collector) degraded(a *agentState, err error) Result {
	if a.hasGood {
		return Result{Addr: a.addr, Reading: a.lastGood, Stale: true}
	}
	return Result{Addr: a.addr, Err: err}
}

// SetTarget commands one agent (which must be in the collector's
// address set) to the given power budget over the persistent
// connection, with the collector's retry policy. An open breaker fails
// fast with ErrCircuitOpen; Collect epochs drive its cooldown.
func (c *Collector) SetTarget(ctx context.Context, addr string, powerW float64) error {
	if err := validTarget(powerW); err != nil {
		return fmt.Errorf("telemetry: set %s: %w", addr, err)
	}
	a := c.agent(addr)
	if a == nil {
		return fmt.Errorf("telemetry: set %s: agent not in collector", addr)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.brk.State() == breaker.Open {
		return fmt.Errorf("%w: %s", ErrCircuitOpen, addr)
	}
	attempts := c.retry.Attempts
	if a.brk.State() == breaker.HalfOpen {
		attempts = 1
	}
	if _, err := c.exchangeLocked(ctx, a, request{Op: "set", TargetW: powerW}, attempts); err != nil {
		a.brk.Fail()
		a.failTotal++
		a.lastErr = err
		return fmt.Errorf("telemetry: set %s: %w", addr, err)
	}
	a.brk.Succeed()
	a.succTotal++
	a.lastErr = nil
	return nil
}

// agent finds the state for addr (first match).
func (c *Collector) agent(addr string) *agentState {
	for _, a := range c.agents {
		if a.addr == addr {
			return a
		}
	}
	return nil
}

// errAgent is an application-level error reported by an agent. It is
// not retried: the agent answered, so the transport is healthy.
type errAgent struct{ msg string }

func (e errAgent) Error() string { return e.msg }

// exchangeLocked runs one request/response exchange on the agent's
// persistent connection, redialing transparently and retrying transport
// failures with seeded exponential backoff. Called with a.mu held.
func (c *Collector) exchangeLocked(ctx context.Context, a *agentState, req request, attempts int) (Reading, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			if err := sleepCtx(ctx, c.backoff(a, try)); err != nil {
				return Reading{}, fmt.Errorf("%s: %w (after %v)", a.addr, err, lastErr)
			}
		}
		resp, err := a.roundTripLocked(ctx, req, c.timeout)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue // transport failure: redial and retry
		}
		if !resp.OK {
			return Reading{}, errAgent{fmt.Sprintf("agent %s: %s", a.addr, resp.Error)}
		}
		if req.Op == "sample" {
			if resp.Reading == nil {
				return Reading{}, errAgent{fmt.Sprintf("agent %s: ok response without reading", a.addr)}
			}
			return *resp.Reading, nil
		}
		return Reading{}, nil
	}
	return Reading{}, fmt.Errorf("%s (after %d attempts): %w", a.addr, attempts, lastErr)
}

// backoff returns the jittered delay before retry number try (1-based):
// exponential in try, capped, with 50–100 % seeded jitter. The jitter
// stream comes from the configured seed (via runner.DeriveSeed), never
// the wall clock, so retry schedules are reproducible.
//
// ghlint:holds a.mu
func (c *Collector) backoff(a *agentState, try int) time.Duration {
	d := c.retry.BaseDelay << (try - 1)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	half := int64(d) / 2
	return time.Duration(half + a.rng.Int63n(half+1))
}

// roundTripLocked performs one exchange on the persistent connection,
// dialing if needed. Any failure tears the connection down so the next
// attempt redials cleanly.
//
// ghlint:holds a.mu
func (a *agentState) roundTripLocked(ctx context.Context, req request, timeout time.Duration) (response, error) {
	if a.conn == nil {
		d := net.Dialer{Timeout: timeout}
		conn, err := d.DialContext(ctx, "tcp", a.addr)
		if err != nil {
			return response{}, fmt.Errorf("dial %s: %w", a.addr, err)
		}
		a.conn = conn
		a.rd = bufio.NewReader(conn)
	}
	if err := a.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		a.closeConnLocked()
		return response{}, fmt.Errorf("deadline %s: %w", a.addr, err)
	}
	line, err := json.Marshal(req)
	if err != nil {
		return response{}, fmt.Errorf("encode %s: %w", a.addr, err)
	}
	if _, err := a.conn.Write(append(line, '\n')); err != nil {
		a.closeConnLocked()
		return response{}, fmt.Errorf("send %s: %w", a.addr, err)
	}
	raw, err := readLine(a.rd, MaxLineBytes)
	if err != nil {
		a.closeConnLocked()
		return response{}, fmt.Errorf("recv %s: %w", a.addr, err)
	}
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		// A garbled response leaves the stream unframed: drop the
		// connection rather than trust subsequent lines.
		a.closeConnLocked()
		return response{}, fmt.Errorf("decode %s: %w", a.addr, err)
	}
	return resp, nil
}

// readLine reads one newline-terminated line of at most max bytes.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		switch {
		case err == nil:
			return bytes.TrimSuffix(buf, []byte("\n")), nil
		case errors.Is(err, bufio.ErrBufferFull):
			if len(buf) > max {
				return nil, fmt.Errorf("response line exceeds %d bytes", max)
			}
		default:
			return nil, err
		}
	}
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// validTarget rejects non-finite power budgets before they reach the
// wire (NaN would silently pass a `NaN < 0` validation on the node).
func validTarget(powerW float64) error {
	if math.IsNaN(powerW) || math.IsInf(powerW, 0) {
		return fmt.Errorf("non-finite power target %v", powerW)
	}
	return nil
}

// SetTarget commands one agent to the given power budget (the wire form
// of an SPC instruction) over a throwaway connection, without retries.
// Prefer Collector.SetTarget for repeated enforcement.
func SetTarget(ctx context.Context, addr string, powerW float64, timeout time.Duration) error {
	if err := validTarget(powerW); err != nil {
		return fmt.Errorf("telemetry: set %s: %w", addr, err)
	}
	resp, err := roundTrip(ctx, addr, request{Op: "set", TargetW: powerW}, timeout)
	if err != nil {
		return fmt.Errorf("telemetry: set %s: %w", addr, err)
	}
	if !resp.OK {
		return fmt.Errorf("telemetry: set %s: %s", addr, resp.Error)
	}
	return nil
}

// roundTrip performs one request/response exchange on a fresh
// connection.
func roundTrip(ctx context.Context, addr string, req request, timeout time.Duration) (response, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return response{}, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return response{}, fmt.Errorf("deadline: %w", err)
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return response{}, fmt.Errorf("send: %w", err)
	}
	raw, err := readLine(bufio.NewReader(conn), MaxLineBytes)
	if err != nil {
		return response{}, fmt.Errorf("recv: %w", err)
	}
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return response{}, fmt.Errorf("decode: %w", err)
	}
	return resp, nil
}

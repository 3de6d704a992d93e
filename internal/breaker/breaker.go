// Package breaker is the one circuit breaker the repo uses: the
// closed/open/half-open state machine with an epoch-counted cooldown
// that guards both the Monitor's per-agent exchanges
// (internal/telemetry) and the fleet coordinator's per-rack steps
// (internal/cluster).
//
// FailureThreshold consecutive failures open the breaker. The next
// CooldownEpochs calls to the once-per-epoch gate are refused; the one
// after that moves the breaker to half-open and lets a single probe
// through, which either closes it or reopens a full cooldown.
package breaker

import (
	"encoding/json"
	"fmt"
)

// defaultCooldownEpochs is the cooldown both callers use when theirs
// is zero.
const defaultCooldownEpochs = 2

// Config tunes a breaker. Zero fields take defaults.
type Config struct {
	// FailureThreshold consecutive failures open the breaker (0 = the
	// caller's default, negative = never open).
	FailureThreshold int `json:"failureThreshold,omitempty"`
	// CooldownEpochs is how many gate calls an open breaker refuses
	// before its half-open probe (0 or negative = defaultCooldownEpochs).
	CooldownEpochs int `json:"cooldownEpochs,omitempty"`
}

// State is a breaker position.
type State int

const (
	// Closed: healthy; attempts flow normally.
	Closed State = iota
	// Open: consecutive failures tripped the breaker; attempts are
	// skipped until the cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed; the next attempt is a single
	// probe that either closes or reopens the breaker.
	HalfOpen
)

var stateNames = [...]string{Closed: "closed", Open: "open", HalfOpen: "half-open"}

// String renders the state for status endpoints.
func (s State) String() string {
	if s < Closed || s > HalfOpen {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON encodes the state as its string form.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes the string form MarshalJSON writes and rejects
// any other value.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("breaker: state: %w", err)
	}
	for st, n := range stateNames {
		if n == name {
			*s = State(st)
			return nil
		}
	}
	return fmt.Errorf("breaker: unknown state %q", name)
}

// Breaker is one guarded peer's position, consecutive failures and
// remaining cooldown. The zero value is not usable; build with New.
type Breaker struct {
	cfg   Config
	state State
	fails int
	left  int // gate calls an open breaker still refuses
}

// New builds a closed breaker. A zero cfg.FailureThreshold takes
// defaultThreshold, a non-positive cfg.CooldownEpochs takes
// defaultCooldownEpochs.
func New(cfg Config, defaultThreshold int) Breaker {
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = defaultThreshold
	}
	if cfg.CooldownEpochs <= 0 {
		cfg.CooldownEpochs = defaultCooldownEpochs
	}
	return Breaker{cfg: cfg}
}

// Allow is the once-per-epoch gate. It returns false while an open
// breaker cools down, and moves it to half-open (returning true) once
// the cooldown has been spent.
func (b *Breaker) Allow() bool {
	if b.state != Open {
		return true
	}
	if b.left > 0 {
		b.left--
		return false
	}
	b.state = HalfOpen
	return true
}

// Fail records a failed attempt. A failed half-open probe reopens a
// full cooldown; otherwise the FailureThreshold-th consecutive failure
// opens the breaker, and a negative threshold never does.
func (b *Breaker) Fail() {
	b.fails++
	if b.state == HalfOpen || (b.cfg.FailureThreshold >= 0 && b.fails >= b.cfg.FailureThreshold) {
		b.state, b.left = Open, b.cfg.CooldownEpochs
	}
}

// Succeed records a successful attempt: it closes the breaker, resets
// the failure count, and reports whether an open episode just ended.
func (b *Breaker) Succeed() bool {
	ended := b.state != Closed
	b.state, b.fails, b.left = Closed, 0, 0
	return ended
}

// Restore re-seeds a persisted position and failure count. A restored
// open breaker waits a full cooldown rather than inheriting a stale
// countdown.
func (b *Breaker) Restore(s State, fails int) {
	b.state, b.fails, b.left = s, fails, 0
	if s == Open {
		b.left = b.cfg.CooldownEpochs
	}
}

// State is the breaker's position.
func (b *Breaker) State() State { return b.state }

// Failures is the consecutive failure count.
func (b *Breaker) Failures() int { return b.fails }

// CooldownLeft is how many more gate calls an open breaker refuses.
func (b *Breaker) CooldownLeft() int { return b.left }

// Config is the breaker's configuration with defaults applied.
func (b *Breaker) Config() Config { return b.cfg }

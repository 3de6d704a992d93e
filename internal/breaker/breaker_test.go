package breaker

import (
	"encoding/json"
	"strings"
	"testing"
)

// callers are the two users of the breaker with the default thresholds
// they pass in (telemetry agents 5, cluster racks 2), plus tuned configs
// of the kind tests and scenario files set.
var callers = []struct {
	name             string
	cfg              Config
	defaultThreshold int
	wantThreshold    int
	wantCooldown     int
}{
	{"agent/default", Config{}, 5, 5, 2},
	{"rack/default", Config{}, 2, 2, 2},
	{"agent/tuned", Config{FailureThreshold: 1, CooldownEpochs: 1}, 5, 1, 1},
	{"rack/tuned", Config{FailureThreshold: 3, CooldownEpochs: 4}, 2, 3, 4},
}

// refusals counts gate calls refused before the gate lets a probe
// through (bounded so a stuck breaker fails the test instead of
// hanging it).
func refusals(t *testing.T, b *Breaker) int {
	t.Helper()
	for n := 0; n < 100; n++ {
		if b.Allow() {
			return n
		}
	}
	t.Fatal("gate never reopened")
	return -1
}

func TestBreakerMachine(t *testing.T) {
	for _, tc := range callers {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.cfg, tc.defaultThreshold)
			if got := b.Config(); got.FailureThreshold != tc.wantThreshold || got.CooldownEpochs != tc.wantCooldown {
				t.Fatalf("config = %+v, want threshold %d cooldown %d", got, tc.wantThreshold, tc.wantCooldown)
			}

			// Threshold: one failure short stays closed, the next opens.
			for i := 1; i < tc.wantThreshold; i++ {
				b.Fail()
				if b.State() != Closed || !b.Allow() {
					t.Fatalf("opened after %d of %d failures", i, tc.wantThreshold)
				}
			}
			b.Fail()
			if b.State() != Open || b.Failures() != tc.wantThreshold {
				t.Fatalf("after threshold: state %v failures %d", b.State(), b.Failures())
			}

			// Exactly CooldownEpochs gate calls are refused, then half-open.
			if n := refusals(t, &b); n != tc.wantCooldown {
				t.Errorf("refused %d gate calls, want %d", n, tc.wantCooldown)
			}
			if b.State() != HalfOpen {
				t.Fatalf("after cooldown: state %v, want half-open", b.State())
			}

			// A failed probe reopens a full cooldown.
			b.Fail()
			if b.State() != Open || b.CooldownLeft() != tc.wantCooldown {
				t.Fatalf("failed probe: state %v cooldown left %d", b.State(), b.CooldownLeft())
			}
			if n := refusals(t, &b); n != tc.wantCooldown {
				t.Errorf("after failed probe refused %d, want %d", n, tc.wantCooldown)
			}

			// Success closes, resets failures, and reports the episode once.
			if !b.Succeed() {
				t.Error("successful probe did not report a completed episode")
			}
			if b.State() != Closed || b.Failures() != 0 || b.CooldownLeft() != 0 {
				t.Errorf("after success: state %v failures %d left %d", b.State(), b.Failures(), b.CooldownLeft())
			}
			if b.Succeed() {
				t.Error("second success reported another episode")
			}
			if tc.wantThreshold > 1 {
				b.Fail()
				if b.Succeed() || b.Failures() != 0 {
					t.Error("success below threshold reported an episode or kept failures")
				}
			}

			// A restored open breaker waits a full cooldown and keeps its
			// failure count.
			r := New(tc.cfg, tc.defaultThreshold)
			r.Restore(Open, 7)
			if r.State() != Open || r.Failures() != 7 {
				t.Fatalf("restored: state %v failures %d", r.State(), r.Failures())
			}
			if n := refusals(t, &r); n != tc.wantCooldown {
				t.Errorf("restored open breaker refused %d, want %d", n, tc.wantCooldown)
			}
			// A restored half-open breaker admits its probe, and a failed
			// probe reopens even below the threshold.
			r.Restore(HalfOpen, 0)
			if !r.Allow() || r.State() != HalfOpen {
				t.Error("restored half-open breaker did not admit its probe")
			}
			r.Fail()
			if r.State() != Open || r.CooldownLeft() != tc.wantCooldown {
				t.Errorf("failed restored probe: state %v cooldown left %d", r.State(), r.CooldownLeft())
			}

			// A negative threshold never opens.
			cfg := tc.cfg
			cfg.FailureThreshold = -1
			d := New(cfg, tc.defaultThreshold)
			for i := 0; i < 50; i++ {
				d.Fail()
				if !d.Allow() {
					t.Fatalf("disabled breaker refused after %d failures", i+1)
				}
			}
			if d.State() != Closed || d.Failures() != 50 {
				t.Errorf("disabled breaker: state %v failures %d", d.State(), d.Failures())
			}
		})
	}
}

func TestStateJSON(t *testing.T) {
	for s, want := range map[State]string{Closed: `"closed"`, Open: `"open"`, HalfOpen: `"half-open"`} {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != want {
			t.Errorf("marshal %d = %s, want %s", int(s), raw, want)
		}
		var back State = -1
		if err := json.Unmarshal(raw, &back); err != nil || back != s {
			t.Errorf("round trip %s = %v, %v", raw, back, err)
		}
	}
	for _, raw := range []string{`"half_open"`, `""`, `1`, `null`} {
		var s State
		if err := json.Unmarshal([]byte(raw), &s); err == nil {
			t.Errorf("%s accepted as %v", raw, s)
		}
	}
	var s State
	if err := json.Unmarshal([]byte(`"ajar"`), &s); err == nil || !strings.Contains(err.Error(), `"ajar"`) {
		t.Errorf("unknown name error = %v, want it named", err)
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/enforcer"
	"greenhetero/internal/fit"
	"greenhetero/internal/policy"
	"greenhetero/internal/power"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/workload"
)

// truthProber profiles against the noiseless ground truth.
type truthProber struct {
	calls int
}

func (p *truthProber) TrainingRun(spec server.Spec, w workload.Workload) (TrainingResult, error) {
	p.calls++
	peakEff := workload.PeakEffW(spec, w)
	res := TrainingResult{PeakEffW: peakEff}
	for i := 0; i < 5; i++ {
		pw := spec.IdleW + 1 + float64(i)/4*(peakEff-spec.IdleW-1)
		res.Samples = append(res.Samples, fit.Sample{X: pw, Y: workload.Perf(spec, w, pw)})
	}
	return res, nil
}

// failingProber always errors.
type failingProber struct{}

func (failingProber) TrainingRun(server.Spec, workload.Workload) (TrainingResult, error) {
	return TrainingResult{}, errors.New("meter offline")
}

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
	r, err := server.NewRack("test", server.Group{Spec: a, Count: 5}, server.Group{Spec: b, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testConfig(t *testing.T) Config {
	t.Helper()
	bank, err := battery.New(battery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rack:        testRack(t),
		DB:          profiledb.New(),
		Policy:      policy.Solver{Adaptive: true},
		Battery:     bank,
		GridBudgetW: 1000,
		Epoch:       15 * time.Minute,
		Prober:      &truthProber{},
	}
}

// uniform is one workload per group of ctrl's rack, every group
// running w.
func uniform(ctrl *Controller, w workload.Workload) []workload.Workload {
	ws := make([]workload.Workload, len(ctrl.groups))
	for i := range ws {
		ws[i] = w
	}
	return ws
}

func mustWorkload(t *testing.T, id string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	base := testConfig(t)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil rack", func(c *Config) { c.Rack = nil }},
		{"nil db", func(c *Config) { c.DB = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"nil battery", func(c *Config) { c.Battery = nil }},
		{"nil prober", func(c *Config) { c.Prober = nil }},
		{"zero epoch", func(c *Config) { c.Epoch = 0 }},
		{"negative grid", func(c *Config) { c.GridBudgetW = -1 }},
		{"NaN grid", func(c *Config) { c.GridBudgetW = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestFirstStepRunsTrainingForAllGroups(t *testing.T) {
	cfg := testConfig(t)
	pb := &truthProber{}
	cfg.Prober = pb
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	dec, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.TrainingRun {
		t.Error("first step should train")
	}
	if pb.calls != 2 {
		t.Errorf("training calls = %d, want one per group", pb.calls)
	}
	if cfg.DB.Len() != 2 {
		t.Errorf("db entries = %d, want 2", cfg.DB.Len())
	}
	// Second step must not retrain.
	dec, err = ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if dec.TrainingRun || pb.calls != 2 {
		t.Errorf("retrained: %v calls %d", dec.TrainingRun, pb.calls)
	}
	// A new workload trains again.
	if _, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, mustWorkload(t, workload.Canneal))); err != nil {
		t.Fatal(err)
	}
	if pb.calls != 4 {
		t.Errorf("calls = %d, want 4 after new workload", pb.calls)
	}
}

func TestTrainingFailureSurfaces(t *testing.T) {
	cfg := testConfig(t)
	cfg.Prober = failingProber{}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, mustWorkload(t, workload.SPECjbb))); err == nil {
		t.Error("prober failure must surface")
	}
}

func TestCaseAIsUnconstrained(t *testing.T) {
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	dec, err := ctrl.Step(Observation{RenewableW: 5000, DemandW: 1000}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Case != power.CaseA || !dec.Unconstrained {
		t.Errorf("case %v unconstrained %v, want A/true", dec.Case, dec.Unconstrained)
	}
	// PAR reported as demand shares: Xeon group demand dominates.
	if dec.Fractions[0] <= dec.Fractions[1] {
		t.Errorf("fractions = %v, want Xeon share larger", dec.Fractions)
	}
	// Surplus renewable charges the battery... but the bank starts
	// full, so it is curtailed instead.
	if dec.Plan.CurtailedW <= 0 {
		t.Errorf("curtailed = %v, want surplus curtailment with a full bank", dec.Plan.CurtailedW)
	}
}

func TestScarcityAllocatesWithPolicy(t *testing.T) {
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	// Prime with two epochs, then a scarce one.
	if _, err := ctrl.Step(Observation{RenewableW: 700, DemandW: 1100}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(Observation{RenewableW: 700, DemandW: 1100}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	dec, err := ctrl.Step(Observation{RenewableW: 700, DemandW: 1100}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Case != power.CaseB {
		t.Fatalf("case = %v, want B", dec.Case)
	}
	if dec.Unconstrained {
		t.Error("scarce epoch must be constrained")
	}
	if len(dec.Fractions) != 2 {
		t.Fatalf("fractions = %v, want one per group", dec.Fractions)
	}
	var sum float64
	for _, f := range dec.Fractions {
		sum += f
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Errorf("fractions sum = %v", sum)
	}
	if dec.SupplyW <= 0 {
		t.Errorf("supply = %v", dec.SupplyW)
	}
}

// fixedPolicy returns a set PAR vector, valid or not.
type fixedPolicy struct{ fracs []float64 }

func (*fixedPolicy) Name() string    { return "fixed" }
func (*fixedPolicy) UpdatesDB() bool { return false }
func (p *fixedPolicy) Allocate(policy.Context) ([]float64, error) {
	return append([]float64(nil), p.fracs...), nil
}

// TestStepKeepsPARGuard checks that Step rejects a malformed PAR vector
// on every supplied epoch with the enforcer's sentinels, and that an
// epoch which delivers no power skips the check.
func TestStepKeepsPARGuard(t *testing.T) {
	w := mustWorkload(t, workload.SPECjbb)
	for _, tc := range []struct {
		name  string
		fracs []float64
		want  error
	}{
		{"sum above one", []float64{0.7, 0.7}, enforcer.ErrBadFraction},
		{"negative", []float64{-0.1, 0.5}, enforcer.ErrBadFraction},
		{"wrong length", []float64{1}, enforcer.ErrFractionMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Policy = &fixedPolicy{fracs: tc.fracs}
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := ctrl.Step(Observation{RenewableW: 700, DemandW: 1100}, uniform(ctrl, w))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Step = %+v, %v; want %v", dec, err, tc.want)
			}
		})
		t.Run(tc.name+"/zero supply", func(t *testing.T) {
			// A drained bank, no grid and a renewable drop the
			// forecast misses: the policy runs on the predicted supply,
			// but nothing is delivered.
			cfg := testConfig(t)
			cfg.GridBudgetW = 0
			if err := cfg.Battery.(*battery.Bank).SetSoC(0.6); err != nil {
				t.Fatal(err)
			}
			p := &fixedPolicy{fracs: []float64{0.5, 0.5}}
			cfg.Policy = p
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 2; e++ {
				if _, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1100}, uniform(ctrl, w)); err != nil {
					t.Fatalf("priming epoch %d: %v", e, err)
				}
			}
			p.fracs = tc.fracs
			dec, err := ctrl.Step(Observation{RenewableW: 0, DemandW: 1100}, uniform(ctrl, w))
			if err != nil {
				t.Fatalf("zero-supply epoch: %v", err)
			}
			if dec.SupplyW != 0 {
				t.Fatalf("supply = %v, want 0", dec.SupplyW)
			}
			if len(dec.Fractions) != len(tc.fracs) || dec.Fractions[0] != tc.fracs[0] {
				t.Fatalf("fractions = %v, want the policy's %v", dec.Fractions, tc.fracs)
			}
		})
	}
}

func TestNegativeObservationRejected(t *testing.T) {
	ctrl, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(Observation{RenewableW: -1, DemandW: 100}, uniform(ctrl, mustWorkload(t, workload.SPECjbb))); err == nil {
		t.Error("negative renewable must error")
	}
	if _, err := ctrl.Step(Observation{RenewableW: 1, DemandW: -100}, uniform(ctrl, mustWorkload(t, workload.SPECjbb))); err == nil {
		t.Error("negative demand must error")
	}
	if _, err := ctrl.Step(Observation{RenewableW: math.NaN(), DemandW: 100}, uniform(ctrl, mustWorkload(t, workload.SPECjbb))); err == nil {
		t.Error("NaN renewable must error")
	}
	if _, err := ctrl.Step(Observation{RenewableW: 1, DemandW: math.NaN()}, uniform(ctrl, mustWorkload(t, workload.SPECjbb))); err == nil {
		t.Error("NaN demand must error")
	}
	for _, w := range []float64{-1, math.NaN()} {
		if err := ctrl.SetGridBudgetW(w); !errors.Is(err, ErrBadConfig) {
			t.Errorf("SetGridBudgetW(%v) err = %v, want ErrBadConfig", w, err)
		}
	}
}

func TestFeedbackGatedByPolicy(t *testing.T) {
	w := mustWorkload(t, workload.SPECjbb)
	sample := fit.Sample{X: 120, Y: 500}

	// Adaptive: feedback lands in the database.
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	before, err := cfg.DB.Lookup(profiledb.Key{ServerID: server.XeonE52620, WorkloadID: w.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Feedback(uniform(ctrl, w), [][]fit.Sample{{sample, {X: 100, Y: 300}}, nil}); err != nil {
		t.Fatal(err)
	}
	after, err := cfg.DB.Lookup(profiledb.Key{ServerID: server.XeonE52620, WorkloadID: w.ID})
	if err != nil {
		t.Fatal(err)
	}
	if after.Refits != before.Refits+1 {
		t.Errorf("refits = %d, want %d", after.Refits, before.Refits+1)
	}

	// Non-adaptive: feedback is dropped.
	cfgA := testConfig(t)
	cfgA.Policy = policy.Solver{Adaptive: false}
	ctrlA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrlA.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrlA, w)); err != nil {
		t.Fatal(err)
	}
	if err := ctrlA.Feedback(uniform(ctrlA, w), [][]fit.Sample{{sample, {X: 100, Y: 300}}, nil}); err != nil {
		t.Fatal(err)
	}
	e, err := cfgA.DB.Lookup(profiledb.Key{ServerID: server.XeonE52620, WorkloadID: w.ID})
	if err != nil {
		t.Fatal(err)
	}
	if e.Refits != 0 {
		t.Errorf("GreenHetero-a refits = %d, want 0", e.Refits)
	}
}

func TestFeedbackBadGroupIndex(t *testing.T) {
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	if _, err := ctrl.Step(Observation{RenewableW: 500, DemandW: 1000}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	// One sample set per group: a set for a group the rack does not
	// have is an error, not silently dropped.
	samples := make([][]fit.Sample, 8)
	samples[7] = []fit.Sample{{X: 1, Y: 1}}
	if err := ctrl.Feedback(uniform(ctrl, w), samples); err == nil {
		t.Error("a sample set beyond the rack's groups must error")
	}
	if err := ctrl.Feedback(uniform(ctrl, w), samples[:1]); err == nil {
		t.Error("fewer sample sets than groups must error")
	}
}

// TestFeedbackErrorNamesFirstGroup: groups are folded in group order, so
// when several fail the error always names the first. Feedback before
// any training run fails with ErrNotFound for both groups.
func TestFeedbackErrorNamesFirstGroup(t *testing.T) {
	ctrl, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	ws := uniform(ctrl, w)
	first := profiledb.Key{ServerID: ctrl.groups[0].Spec.ID, WorkloadID: w.ID}.String()
	second := profiledb.Key{ServerID: ctrl.groups[1].Spec.ID, WorkloadID: w.ID}.String()
	samples := [][]fit.Sample{{{X: 100, Y: 300}}, {{X: 60, Y: 200}}}
	for i := 0; i < 20; i++ {
		err := ctrl.Feedback(ws, samples)
		if !errors.Is(err, profiledb.ErrNotFound) {
			t.Fatalf("call %d: err = %v, want ErrNotFound", i, err)
		}
		if msg := err.Error(); !strings.Contains(msg, first) || strings.Contains(msg, second) {
			t.Fatalf("call %d: err = %q, want it to name %s only", i, msg, first)
		}
	}
}

func TestRecoveryLockoutAfterDoD(t *testing.T) {
	// Drain the bank to its floor, then verify the controller refuses
	// to discharge again until the charge recovers.
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	// Night: zero renewable, demand 900 W (below the 1000 W grid budget,
	// leaving charging headroom). 4.8 kWh usable → ~21 epochs at 15 min;
	// run 40 to pass the DoD point.
	var sawGridChargeDuringLockout bool
	for e := 0; e < 40; e++ {
		atFloorBefore := cfg.Battery.AtDoD()
		dec, err := ctrl.Step(Observation{RenewableW: 0, DemandW: 900}, uniform(ctrl, w))
		if err != nil {
			t.Fatal(err)
		}
		if atFloorBefore && dec.Execution.BatteryToLoadW > 0 {
			t.Fatalf("epoch %d: discharging from the DoD floor", e)
		}
		if dec.Execution.BatteryChargedW > 0 && dec.Execution.GridW > dec.Plan.LoadGridW-1e-9 {
			sawGridChargeDuringLockout = true
		}
	}
	if !cfg.Battery.AtDoD() && cfg.Battery.SoC() < 0.61 {
		t.Errorf("bank SoC = %v; expected recharge above the floor", cfg.Battery.SoC())
	}
	if !sawGridChargeDuringLockout {
		t.Error("grid never recharged the bank after DoD")
	}
}

func TestManualPolicyThroughController(t *testing.T) {
	cfg := testConfig(t)
	cfg.Policy = &policy.Manual{}
	rng := rand.New(rand.NewSource(5))
	groups := cfg.Rack.Groups()
	w := mustWorkload(t, workload.SPECjbb)
	cfg.TryAllocation = func(supplyW float64, fracs []float64) (float64, error) {
		var total float64
		for i, g := range groups {
			perServer := fracs[i] * supplyW / float64(g.Count)
			total += float64(g.Count) * workload.Perf(g.Spec, w, perServer) * (1 + 0.01*rng.NormFloat64())
		}
		return total, nil
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Prime predictors, then force scarcity so Manual actually trials.
	if _, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1100}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1100}, uniform(ctrl, w)); err != nil {
		t.Fatal(err)
	}
	dec, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1100}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Case == power.CaseA {
		t.Fatal("expected scarcity")
	}
	var sum float64
	for _, f := range dec.Fractions {
		sum += f
	}
	if sum <= 0 {
		t.Errorf("manual fractions = %v", dec.Fractions)
	}
}

func TestStepMixedWorkloads(t *testing.T) {
	cfg := testConfig(t)
	pb := &truthProber{}
	cfg.Prober = pb
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := []workload.Workload{
		mustWorkload(t, workload.SPECjbb),
		mustWorkload(t, workload.Memcached),
	}
	dec, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1000}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.TrainingRun || pb.calls != 2 {
		t.Errorf("training = %v, calls %d", dec.TrainingRun, pb.calls)
	}
	// The database must key the Xeon group to SPECjbb and the i5 group
	// to Memcached.
	if _, err := cfg.DB.Lookup(profiledb.Key{ServerID: server.XeonE52620, WorkloadID: workload.SPECjbb}); err != nil {
		t.Errorf("xeon/specjbb entry: %v", err)
	}
	if _, err := cfg.DB.Lookup(profiledb.Key{ServerID: server.CoreI54460, WorkloadID: workload.Memcached}); err != nil {
		t.Errorf("i5/memcached entry: %v", err)
	}
	if cfg.DB.Len() != 2 {
		t.Errorf("db entries = %d, want 2", cfg.DB.Len())
	}
	// Mismatched slice lengths and empty workloads are rejected.
	if _, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1000}, ws[:1]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1000}, []workload.Workload{{}, {}}); err == nil {
		t.Error("empty workload should error")
	}
}

func TestFeedbackMixedKeying(t *testing.T) {
	cfg := testConfig(t)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := []workload.Workload{
		mustWorkload(t, workload.SPECjbb),
		mustWorkload(t, workload.Memcached),
	}
	if _, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 1000}, ws); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Feedback(ws, [][]fit.Sample{
		nil,
		{{X: 55, Y: 10}, {X: 60, Y: 12}},
	}); err != nil {
		t.Fatal(err)
	}
	e, err := cfg.DB.Lookup(profiledb.Key{ServerID: server.CoreI54460, WorkloadID: workload.Memcached})
	if err != nil {
		t.Fatal(err)
	}
	if e.Refits != 1 {
		t.Errorf("refits = %d, want 1", e.Refits)
	}
	if err := ctrl.Feedback(ws[:1], nil); err == nil {
		t.Error("length mismatch should error")
	}
}

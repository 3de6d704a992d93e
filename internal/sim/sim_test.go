package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"greenhetero/internal/policy"
	"greenhetero/internal/power"
	"greenhetero/internal/server"
	"greenhetero/internal/solar"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

var simStart = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func comb1Rack(t testing.TB) *server.Rack {
	t.Helper()
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	r, err := server.NewRack("comb1", server.Group{Spec: a, Count: 5}, server.Group{Spec: b, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustWorkload(t testing.TB, id string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// scarcityLadder builds a constant-step trace sweeping supply fractions
// of the given anchor demand.
func scarcityLadder(t testing.TB, fracs []float64, anchorW float64, perLevel int) *trace.Trace {
	t.Helper()
	var vals []float64
	for _, f := range fracs {
		for i := 0; i < perLevel; i++ {
			vals = append(vals, f*anchorW)
		}
	}
	tr, err := trace.New("ladder", simStart, 15*time.Minute, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(t testing.TB) Config {
	t.Helper()
	tr, err := solar.DefaultHigh(2200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rack:        comb1Rack(t),
		Workload:    mustWorkload(t, workload.SPECjbb),
		Policy:      policy.Solver{Adaptive: true},
		Solar:       tr,
		Epochs:      96,
		GridBudgetW: 1000,
		Seed:        7,
	}
}

func TestRunValidation(t *testing.T) {
	base := baseConfig(t)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil rack", func(c *Config) { c.Rack = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"nil solar", func(c *Config) { c.Solar = nil }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"negative start", func(c *Config) { c.StartEpoch = -1 }},
		{"negative grid", func(c *Config) { c.GridBudgetW = -1 }},
		{"NaN grid", func(c *Config) { c.GridBudgetW = math.NaN() }},
		{"empty workload", func(c *Config) { c.Workload = workload.Workload{} }},
		{"bad soc", func(c *Config) { c.InitialSoC = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := baseConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("epochs = %d, want %d", len(res.Epochs), cfg.Epochs)
	}
	if res.Policy != "GreenHetero" || res.Workload != workload.SPECjbb {
		t.Errorf("labels = %q %q", res.Policy, res.Workload)
	}
	for _, e := range res.Epochs {
		if e.EPU < 0 || e.EPU > 1 {
			t.Errorf("epoch %d: EPU %v out of range", e.Epoch, e.EPU)
		}
		if e.UsedW > e.SupplyW+e.DemandW { // defensive sanity
			t.Errorf("epoch %d: used %v >> supply %v", e.Epoch, e.UsedW, e.SupplyW)
		}
		if e.SupplyW < 0 || e.Perf < 0 || e.GridW < 0 {
			t.Errorf("epoch %d: negative flows %+v", e.Epoch, e)
		}
		if e.GridW > cfg.GridBudgetW+1e-9 {
			t.Errorf("epoch %d: grid %v exceeds budget", e.Epoch, e.GridW)
		}
		if e.BatterySoC < 0.6-1e-9 || e.BatterySoC > 1+1e-9 {
			t.Errorf("epoch %d: SoC %v outside DoD band", e.Epoch, e.BatterySoC)
		}
		var sum float64
		for _, f := range e.Fractions {
			if f < -1e-9 {
				t.Errorf("epoch %d: negative fraction %v", e.Epoch, f)
			}
			sum += f
		}
		if sum > 1+1e-9 {
			t.Errorf("epoch %d: fractions sum %v", e.Epoch, sum)
		}
	}
	// The first epoch must have run training (fresh database).
	if !res.Epochs[0].TrainingRun {
		t.Error("first epoch should be a training run")
	}
	if res.Epochs[1].TrainingRun {
		t.Error("training must not repeat for a profiled pair")
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	cfg := baseConfig(t)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Epochs {
		if r1.Epochs[i].Perf != r2.Epochs[i].Perf || r1.Epochs[i].EPU != r2.Epochs[i].EPU {
			t.Fatalf("epoch %d differs across identical runs", i)
		}
	}
	cfg.Seed = 8
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Epochs {
		if r1.Epochs[i].Perf != r3.Epochs[i].Perf {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noisy runs")
	}
}

func TestCaseAEpochsAreUnconstrained(t *testing.T) {
	// With abundant renewable all day, every post-training epoch is
	// Case A: near-perfect EPU and near-max performance for *any*
	// policy (the paper: adaptive allocation has little impact when
	// power is abundant).
	cfg := baseConfig(t)
	abundant, err := trace.New("abundant", simStart, 15*time.Minute, constVals(5000, 48))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solar = abundant
	cfg.Epochs = 48
	cfg.Intensity = ConstantIntensity(0.9)

	results, err := Compare(cfg, []policy.Policy{policy.Uniform{}, policy.Solver{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	uni, gh := results["Uniform"], results["GreenHetero"]
	ratio := gh.MeanPerf() / uni.MeanPerf()
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("abundant-power ratio = %v, want ≈ 1", ratio)
	}
	for _, e := range gh.Epochs[1:] {
		if e.Case != power.CaseA {
			t.Errorf("epoch %d: case %v, want A", e.Epoch, e.Case)
		}
	}
}

func constVals(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestScarcityOrderingMatchesPaper(t *testing.T) {
	// Under insufficient renewable power (Figs. 9/10 regime) the paper's
	// ordering must hold: GreenHetero ≥ GreenHetero-a ≥ Uniform, every
	// policy ≥ Uniform, and GreenHetero's gain in the paper's 1.2–2.2×
	// band (±0.3 slack for our substrate).
	rack := comb1Rack(t)
	anchor := rack.PeakW() * 0.83 // ≈ full SPECjbb demand
	tr := scarcityLadder(t, []float64{0.45, 0.55, 0.65, 0.75, 0.85, 0.95}, anchor, 6)
	for _, wid := range []string{workload.SPECjbb, workload.Streamcluster, workload.Memcached} {
		wid := wid
		t.Run(wid, func(t *testing.T) {
			cfg := Config{
				Rack: rack, Workload: mustWorkload(t, wid), Solar: tr,
				Epochs: tr.Len(), GridBudgetW: 0, InitialSoC: 0.6,
				Seed: 7, Intensity: ConstantIntensity(1),
			}
			results, err := Compare(cfg, policy.All())
			if err != nil {
				t.Fatal(err)
			}
			uni := results["Uniform"].MeanPerfScarce()
			gh := results["GreenHetero"].MeanPerfScarce()
			gha := results["GreenHetero-a"].MeanPerfScarce()
			for name, r := range results {
				if name == "Uniform" {
					continue
				}
				if r.MeanPerfScarce() < uni*0.98 {
					t.Errorf("%s (%v) below Uniform (%v)", name, r.MeanPerfScarce(), uni)
				}
			}
			if gh < gha*0.98 {
				t.Errorf("GreenHetero (%v) below GreenHetero-a (%v)", gh, gha)
			}
			gain := gh / uni
			if gain < 1.2 || gain > 2.5 {
				t.Errorf("gain = %vx, want within the paper band ≈[1.2, 2.2]", gain)
			}
			// EPU improves too (Fig. 10 direction).
			if results["GreenHetero"].MeanEPUScarce() <= results["Uniform"].MeanEPUScarce() {
				t.Error("GreenHetero EPU not above Uniform")
			}
		})
	}
}

func TestHighTraceRuntimeShape(t *testing.T) {
	// Fig. 8 shape: on the High trace over 24 h, GreenHetero ≈ 1.2–1.8×
	// Uniform in scarce epochs, ≈ 1× in Case A epochs; the battery
	// reaches its DoD floor overnight; grid takes over afterwards.
	cfg := baseConfig(t)
	results, err := Compare(cfg, []policy.Policy{policy.Uniform{}, policy.Solver{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	uni, gh := results["Uniform"], results["GreenHetero"]
	scarceGain := gh.MeanPerfScarce() / uni.MeanPerfScarce()
	if scarceGain < 1.2 || scarceGain > 2.0 {
		t.Errorf("scarce gain = %v, want ≈ 1.5", scarceGain)
	}
	var hitDoD, usedGrid, chargedBattery bool
	for _, e := range gh.Epochs {
		if e.BatterySoC <= 0.605 {
			hitDoD = true
		}
		if e.GridW > 0 {
			usedGrid = true
		}
		if e.BatteryInW > 0 {
			chargedBattery = true
		}
	}
	if !hitDoD {
		t.Error("battery never reached DoD over 24h (Fig. 8b expects a long overnight discharge)")
	}
	if !usedGrid {
		t.Error("grid never used (Fig. 8b expects grid takeover after DoD)")
	}
	if !chargedBattery {
		t.Error("battery never charged (Fig. 8b expects daytime charging)")
	}
	// Average PAR in a heterogeneity-favoring band (paper ≈ 58 %).
	if par := gh.MeanPAR(); par < 0.5 || par > 0.75 {
		t.Errorf("mean PAR = %v, want ≈ 0.58–0.65", par)
	}
}

func TestLowTraceMoreBatteryActivity(t *testing.T) {
	// Fig. 11: the Low trace causes more charge/discharge transitions
	// than the High trace.
	cfg := baseConfig(t)
	cfg.Epochs = 96 * 3
	high, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := solar.DefaultLow(2200)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solar = low
	lowRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if transitions(lowRes) <= transitions(high) {
		t.Errorf("low trace transitions %d ≤ high %d", transitions(lowRes), transitions(high))
	}
}

// transitions counts battery direction changes (charge↔discharge).
func transitions(r *Result) int {
	var n int
	prev := 0
	for _, e := range r.Epochs {
		cur := 0
		switch {
		case e.BatteryOutW > 1:
			cur = -1
		case e.BatteryInW > 1:
			cur = 1
		}
		if cur != 0 && prev != 0 && cur != prev {
			n++
		}
		if cur != 0 {
			prev = cur
		}
	}
	return n
}

func TestGridBudgetSweep(t *testing.T) {
	// Fig. 12 direction: the scarcer the grid budget, the larger
	// GreenHetero's advantage once batteries drain.
	rack := comb1Rack(t)
	night, err := trace.New("night", simStart, 15*time.Minute, constVals(0, 24))
	if err != nil {
		t.Fatal(err)
	}
	gains := make([]float64, 0, 3)
	for _, budget := range []float64{600, 900, 1200} {
		cfg := Config{
			Rack: rack, Workload: mustWorkload(t, workload.SPECjbb), Solar: night,
			Epochs: 24, GridBudgetW: budget, InitialSoC: 0.6, Seed: 7,
			Intensity: ConstantIntensity(1),
		}
		results, err := Compare(cfg, []policy.Policy{policy.Uniform{}, policy.Solver{Adaptive: true}})
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, results["GreenHetero"].MeanPerf()/results["Uniform"].MeanPerf())
	}
	if !(gains[0] >= gains[1] && gains[1] >= gains[2]) {
		t.Errorf("gains %v not decreasing with budget", gains)
	}
}

func TestGPURackSradGain(t *testing.T) {
	// Fig. 14: on the CPU+GPU rack, Srad_v1 shows the largest gain
	// (paper: up to 4.6×) and Cfd the smallest.
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	g, err := server.Lookup(server.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	rack, err := server.NewRack("comb6", server.Group{Spec: a, Count: 5}, server.Group{Spec: g, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := scarcityLadder(t, []float64{0.45, 0.55, 0.65, 0.75}, rack.PeakW()*0.85, 6)
	gains := make(map[string]float64)
	for _, w := range workload.Comb6Set() {
		cfg := Config{
			Rack: rack, Workload: w, Solar: tr, Epochs: tr.Len(),
			GridBudgetW: 0, InitialSoC: 0.6, Seed: 7, Intensity: ConstantIntensity(1),
		}
		results, err := Compare(cfg, []policy.Policy{policy.Uniform{}, policy.Solver{Adaptive: true}})
		if err != nil {
			t.Fatal(err)
		}
		gains[w.ID] = results["GreenHetero"].MeanPerfScarce() / results["Uniform"].MeanPerfScarce()
	}
	if gains[workload.SradV1] < 2.5 {
		t.Errorf("srad gain = %v, want large (paper 4.6x)", gains[workload.SradV1])
	}
	for id, g := range gains {
		if id == workload.SradV1 {
			continue
		}
		if g > gains[workload.SradV1] {
			t.Errorf("%s gain %v exceeds srad %v", id, g, gains[workload.SradV1])
		}
	}
	if gains[workload.Cfd] > gains[workload.Particlefilter] {
		t.Errorf("cfd gain %v above particlefilter %v (cfd should be smallest)", gains[workload.Cfd], gains[workload.Particlefilter])
	}
}

func TestCompareFreshManualState(t *testing.T) {
	// Compare must not leak Manual's trial table between scenarios.
	cfg := baseConfig(t)
	cfg.Epochs = 12
	pols := []policy.Policy{&policy.Manual{}}
	if _, err := Compare(cfg, pols); err != nil {
		t.Fatal(err)
	}
	// Second call with a different rack shape must still work (a stale
	// cached 2-group ratio on a 3-group rack would error).
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Lookup(server.XeonE52603)
	if err != nil {
		t.Fatal(err)
	}
	c, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	rack3, err := server.NewRack("comb5", server.Group{Spec: a, Count: 2}, server.Group{Spec: b, Count: 2}, server.Group{Spec: c, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rack = rack3
	if _, err := Compare(cfg, []policy.Policy{&policy.Manual{}}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalIntensityShape(t *testing.T) {
	f := DiurnalIntensity(96)
	for e := 0; e < 96; e++ {
		v := f(e)
		if v <= 0 || v > 1 {
			t.Fatalf("intensity(%d) = %v out of range", e, v)
		}
	}
	// Midday must exceed midnight (business-hours hump).
	if f(56) <= f(0) { // 14:00 vs 00:00
		t.Errorf("midday %v not above midnight %v", f(56), f(0))
	}
	// Degenerate epochsPerDay falls back to constant full load.
	if DiurnalIntensity(0)(5) != 1 {
		t.Error("zero epochsPerDay should yield 1")
	}
}

func BenchmarkRun24h(b *testing.B) {
	tr, err := solar.DefaultHigh(2200)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Rack:        comb1Rack(b),
		Workload:    mustWorkload(b, workload.SPECjbb),
		Policy:      policy.Solver{Adaptive: true},
		Solar:       tr,
		Epochs:      96,
		GridBudgetW: 1000,
		Seed:        7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWeekLongStability runs the paper's full one-week trace: invariants
// must hold at every epoch, the battery must cycle repeatedly, and the
// adaptive database must keep refitting without degrading.
func TestWeekLongStability(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long run")
	}
	cfg := baseConfig(t)
	cfg.Epochs = 7 * 96
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 7*96 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.EPU < 0 || e.EPU > 1 || e.SupplyW < 0 || e.Perf < 0 {
			t.Fatalf("epoch %d: invariants violated: %+v", e.Epoch, e)
		}
		if e.BatterySoC < 0.6-1e-9 || e.BatterySoC > 1+1e-9 {
			t.Fatalf("epoch %d: SoC %v", e.Epoch, e.BatterySoC)
		}
	}
	if res.BatteryCycles < 5 {
		t.Errorf("battery cycles = %d over a week, want ≥ 5 (nightly)", res.BatteryCycles)
	}
	// Day 7 performance must not collapse relative to day 2 (the
	// database refits must not degrade the projections over time).
	day := func(d int) float64 {
		var sum float64
		for _, e := range res.Epochs[d*96 : (d+1)*96] {
			sum += e.Perf
		}
		return sum
	}
	if day(6) < day(1)*0.85 {
		t.Errorf("day 7 perf %v collapsed vs day 2 %v", day(6), day(1))
	}
}

// TestSessionStepwise exercises the Session API directly.
func TestSessionStepwise(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Epochs = 4
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != "GreenHetero" || s.WorkloadLabel() != workload.SPECjbb {
		t.Errorf("labels = %s/%s", s.Policy(), s.WorkloadLabel())
	}
	if s.EpochHours() != 0.25 {
		t.Errorf("epoch hours = %v", s.EpochHours())
	}
	for i := 0; i < 4; i++ {
		if s.Done() {
			t.Fatalf("done after %d epochs", i)
		}
		if s.Epoch() != i {
			t.Fatalf("epoch index = %d, want %d", s.Epoch(), i)
		}
		er, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if er.Epoch != i {
			t.Errorf("result epoch = %d", er.Epoch)
		}
	}
	if !s.Done() {
		t.Error("not done after budget")
	}
	// Stepping past Done keeps working (daemon mode): the trace end
	// value holds.
	if _, err := s.Step(); err != nil {
		t.Fatalf("step past done: %v", err)
	}
	if s.Bank() == nil || s.DB() == nil {
		t.Error("nil accessors")
	}
}

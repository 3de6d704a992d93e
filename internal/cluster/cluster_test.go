package cluster

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"greenhetero/internal/policy"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

var updateFleetGolden = flag.Bool("update-fleet-golden", false, "rewrite the fleet golden fixture")

func rackOf(t *testing.T, name string, ids []string, count int) *server.Rack {
	t.Helper()
	groups := make([]server.Group, 0, len(ids))
	for _, id := range ids {
		spec, err := server.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, server.Group{Spec: spec, Count: count})
	}
	r, err := server.NewRack(name, groups...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustWorkload(t *testing.T, id string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func twoRackConfig(t *testing.T) Config {
	t.Helper()
	tr, err := solar.DefaultHigh(4500)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Racks: []RackConfig{
			{
				Rack:     rackOf(t, "rack-a", []string{server.XeonE52620, server.CoreI54460}, 5),
				Workload: mustWorkload(t, workload.SPECjbb),
				Policy:   policy.Solver{Adaptive: true},
			},
			{
				Rack:     rackOf(t, "rack-b", []string{server.XeonE52603, server.CoreI54460}, 5),
				Workload: mustWorkload(t, workload.Canneal),
				Policy:   policy.Solver{Adaptive: true},
			},
		},
		Solar:           tr,
		SiteGridBudgetW: 1800,
		Epochs:          48,
		Seed:            7,
	}
}

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"no racks", func(c *Config) { c.Racks = nil }},
		{"nil solar", func(c *Config) { c.Solar = nil }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"nil rack", func(c *Config) { c.Racks[0].Rack = nil }},
		{"nil policy", func(c *Config) { c.Racks[0].Policy = nil }},
		{"no workload", func(c *Config) { c.Racks[0].Workload = workload.Workload{} }},
		{"negative site grid", func(c *Config) { c.SiteGridBudgetW = -1 }},
		{"NaN site grid", func(c *Config) { c.SiteGridBudgetW = math.NaN() }},
		{"bad initial SoC", func(c *Config) { c.InitialSoC = 1.5 }},
		{"group workload count", func(c *Config) {
			c.Racks[0].GroupWorkloads = []workload.Workload{c.Racks[0].Workload}
		}},
		{"duplicate rack names", func(c *Config) {
			c.Racks[1].Rack = rackOf(t, "rack-a", []string{server.XeonE52603}, 5)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := twoRackConfig(t)
			tt.mut(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestBadTraceRejected: a hand-built solar trace that breaks the trace
// rule table (trace.Validate) fails both a rack session and a fleet
// with their ErrBadConfig, before the first epoch runs.
func TestBadTraceRejected(t *testing.T) {
	tests := []struct {
		name   string
		step   time.Duration
		sample float64
	}{
		{"zero step", 0, 900},
		{"NaN sample", cfgStep(), math.NaN()},
		{"+Inf sample", cfgStep(), math.Inf(1)},
		{"negative sample", cfgStep(), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vals := constVals(900, 24)
			vals[5] = tt.sample
			bad := &trace.Trace{Name: "bad", Start: simStart(), Step: tt.step, Values: vals}
			cfg := twoRackConfig(t)
			rc := cfg.Racks[0]
			_, err := sim.NewSession(sim.Config{
				Rack: rc.Rack, Workload: rc.Workload, Policy: rc.Policy, Solar: bad, Epochs: 4,
			})
			if !errors.Is(err, sim.ErrBadConfig) {
				t.Errorf("NewSession err = %v, want sim.ErrBadConfig", err)
			}
			cfg.Solar = bad
			epochs := 0
			cfg.Disturber = scriptedDisturber(func(int, *Disturbance) { epochs++ })
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) || epochs != 0 {
				t.Errorf("Run err = %v after %d epochs, want ErrBadConfig before the first", err, epochs)
			}
		})
	}
}

func TestAllocatorByName(t *testing.T) {
	for _, a := range Allocators() {
		got, err := AllocatorByName(a.Name())
		if err != nil || got.Name() != a.Name() {
			t.Errorf("AllocatorByName(%q) = %v, %v", a.Name(), got, err)
		}
	}
	if _, err := AllocatorByName("nope"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown allocator err = %v", err)
	}
}

func TestHierarchicalPARWeights(t *testing.T) {
	out := make([]float64, 2)

	// Abundant supply: grants equal bids — demand-proportional.
	if err := (HierarchicalPAR{}).Weights([]float64{100, 300}, Supply{RenewableW: 1000}, out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.25) > 1e-12 || math.Abs(out[1]-0.75) > 1e-12 {
		t.Errorf("abundant weights = %v, want [0.25 0.75]", out)
	}

	// Scarce supply (200 W for 400 W of bids): max-min fair — both
	// racks rise to the 100 W fill level, so the small bidder is made
	// whole and the shortfall lands on the large one.
	if err := (HierarchicalPAR{}).Weights([]float64{100, 300}, Supply{RenewableW: 200}, out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("scarce weights = %v, want [0.5 0.5]", out)
	}

	// Mid scarcity (250 W): rack 0 saturates at its 100 W bid, rack 1
	// absorbs the remaining 150 W.
	if err := (HierarchicalPAR{}).Weights([]float64{100, 300}, Supply{RenewableW: 250}, out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.4) > 1e-12 || math.Abs(out[1]-0.6) > 1e-12 {
		t.Errorf("mid-scarce weights = %v, want [0.4 0.6]", out)
	}

	// Zero bids fall back to uniform.
	if err := (HierarchicalPAR{}).Weights([]float64{0, 0}, Supply{RenewableW: 250}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0.5 || out[1] != 0.5 {
		t.Errorf("zero-bid weights = %v, want uniform", out)
	}
}

func TestRunAggregates(t *testing.T) {
	cfg := twoRackConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocator != "uniform" {
		t.Errorf("default allocator = %q", res.Allocator)
	}
	if len(res.Racks) != 2 {
		t.Fatalf("racks = %d", len(res.Racks))
	}
	if len(res.Site) != cfg.Epochs {
		t.Fatalf("site trace = %d epochs, want %d", len(res.Site), cfg.Epochs)
	}
	for _, rr := range res.Racks {
		if rr.Result == nil {
			t.Fatalf("rack %s missing result", rr.Name)
		}
		if len(rr.Result.Epochs) != cfg.Epochs {
			t.Errorf("rack %s epochs = %d", rr.Name, len(rr.Result.Epochs))
		}
	}
	for _, se := range res.Site {
		if se.BatterySoC < 0 || se.BatterySoC > 1 {
			t.Fatalf("epoch %d site SoC = %v", se.Epoch, se.BatterySoC)
		}
		if se.BidW <= 0 {
			t.Fatalf("epoch %d bid = %v", se.Epoch, se.BidW)
		}
	}
	if got, want := res.TotalPerf(), res.Racks[0].Result.MeanPerf()+res.Racks[1].Result.MeanPerf(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalPerf = %v, want %v", got, want)
	}
	if res.MeanEPU() <= 0 || res.MeanEPU() > 1 {
		t.Errorf("MeanEPU = %v", res.MeanEPU())
	}
	if res.TotalGridWh() < 0 {
		t.Errorf("grid = %v", res.TotalGridWh())
	}
	if res.TotalPerfScarce() <= 0 {
		t.Errorf("scarce perf = %v", res.TotalPerfScarce())
	}
}

// fleetEqual bit-compares two fleet runs: every rack's epoch records
// and the full site battery trace.
func fleetEqual(t *testing.T, label string, a, b *FleetResult) {
	t.Helper()
	if a.BatteryCycles != b.BatteryCycles {
		t.Errorf("%s: cycles %d vs %d", label, a.BatteryCycles, b.BatteryCycles)
	}
	if len(a.Site) != len(b.Site) || len(a.Racks) != len(b.Racks) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for i := range a.Site {
		if a.Site[i] != b.Site[i] {
			t.Fatalf("%s: site epoch %d differs:\n%+v\n%+v", label, i, a.Site[i], b.Site[i])
		}
	}
	for i := range a.Racks {
		if a.Racks[i].Name != b.Racks[i].Name {
			t.Fatalf("%s: rack %d name %q vs %q", label, i, a.Racks[i].Name, b.Racks[i].Name)
		}
		ae, be := a.Racks[i].Result.Epochs, b.Racks[i].Result.Epochs
		if len(ae) != len(be) {
			t.Fatalf("%s: rack %s epoch count", label, a.Racks[i].Name)
		}
		for e := range ae {
			if !reflect.DeepEqual(ae[e], be[e]) {
				t.Fatalf("%s: rack %s epoch %d differs:\n%+v\n%+v",
					label, a.Racks[i].Name, e, ae[e], be[e])
			}
		}
	}
}

// TestFleetDeterminism proves serial and parallel fleet runs
// bit-identical for every allocator strategy (per-rack epoch records
// and the site battery trace), at parallelism 1, 4, and per-CPU.
func TestFleetDeterminism(t *testing.T) {
	for _, alloc := range Allocators() {
		alloc := alloc
		t.Run(alloc.Name(), func(t *testing.T) {
			cfg := twoRackConfig(t)
			cfg.Allocator = alloc
			cfg.Parallelism = 1
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{4, 0} {
				cfg.Parallelism = par
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fleetEqual(t, fmt.Sprintf("%s/parallelism=%d", alloc.Name(), par), ref, got)
			}
		})
	}
}

// TestMixedRackBids is the regression test for mixed-rack blindness:
// two racks with identical hardware, one running the heavy workload on
// both groups, the other a heavy+light mix via GroupWorkloads. The
// demand-proportional allocator must price the mixed rack off its
// per-group workloads and feed the all-heavy rack more PV.
func TestMixedRackBids(t *testing.T) {
	scarce, err := trace.New("scarce", simStart(), cfgStep(), constVals(900, 24))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{server.XeonE52620, server.XeonE52603}
	cfg := Config{
		Racks: []RackConfig{
			{
				Rack:     rackOf(t, "all-heavy", ids, 5),
				Workload: mustWorkload(t, workload.SPECjbb),
				Policy:   policy.Solver{Adaptive: true},
			},
			{
				Rack: rackOf(t, "mixed", ids, 5),
				GroupWorkloads: []workload.Workload{
					mustWorkload(t, workload.SPECjbb),
					mustWorkload(t, workload.Canneal),
				},
				Policy: policy.Solver{Adaptive: true},
			},
		},
		Solar:     scarce,
		Allocator: DemandProportional{},
		Epochs:    24,
		Seed:      11,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pv := func(i int) float64 {
		var sum float64
		for _, e := range res.Racks[i].Result.Epochs {
			sum += e.RenewableW
		}
		return sum
	}
	if heavy, mixed := pv(0), pv(1); heavy <= mixed {
		t.Errorf("all-heavy rack PV %v W not above mixed rack %v W — mixed rack was priced on a single workload", heavy, mixed)
	}
}

// TestThousandRackSmoke steps a 1000-rack fleet through full epochs.
func TestThousandRackSmoke(t *testing.T) {
	tr, err := solar.DefaultHigh(4500 * 1000)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{server.XeonE52620, server.XeonE52603, server.CoreI54460}
	wls := []string{workload.SPECjbb, workload.Canneal}
	racks := make([]RackConfig, 1000)
	for i := range racks {
		racks[i] = RackConfig{
			Rack:     rackOf(t, fmt.Sprintf("rack-%04d", i), []string{specs[i%len(specs)]}, 4),
			Workload: mustWorkload(t, wls[i%len(wls)]),
			Policy:   policy.Solver{Adaptive: true},
		}
	}
	cfg := Config{
		Racks:           racks,
		Solar:           tr,
		Allocator:       HierarchicalPAR{},
		SiteGridBudgetW: 1000 * 1000,
		Epochs:          3,
		Seed:            42,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) != 1000 || len(res.Site) != cfg.Epochs {
		t.Fatalf("shape: %d racks, %d site epochs", len(res.Racks), len(res.Site))
	}
	if res.TotalPerf() <= 0 {
		t.Errorf("TotalPerf = %v", res.TotalPerf())
	}
}

// fleetGolden is the serialized shape of the golden fixture: the full
// site trace plus per-rack aggregates, enough to diff any allocator
// refactor.
type fleetGolden struct {
	Allocator string
	Cycles    int
	Site      []SiteEpoch
	Racks     []struct {
		Name     string
		MeanPerf float64
		MeanEPU  float64
		GridWh   float64
	}
}

// TestFleetGolden pins a small hierarchical-PAR fleet run to a
// committed fixture so future allocator refactors are diffable. Rerun
// with -update-fleet-golden to regenerate after an intentional change.
func TestFleetGolden(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Allocator = HierarchicalPAR{}
	cfg.Epochs = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var g fleetGolden
	g.Allocator = res.Allocator
	g.Cycles = res.BatteryCycles
	g.Site = res.Site
	for _, rr := range res.Racks {
		g.Racks = append(g.Racks, struct {
			Name     string
			MeanPerf float64
			MeanEPU  float64
			GridWh   float64
		}{rr.Name, rr.Result.MeanPerf(), rr.Result.MeanEPU(), rr.Result.GridEnergyWh()})
	}
	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "fleet_golden.json")
	if *updateFleetGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update-fleet-golden)", err)
	}
	if string(got) != string(want) {
		t.Errorf("fleet golden drifted (rerun with -update-fleet-golden if intentional):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRackFailurePropagates(t *testing.T) {
	// An unbuildable rack session (empty workload ID in the group list)
	// must surface the rack's name rather than return a partial result.
	cfg := twoRackConfig(t)
	cfg.Racks[1].GroupWorkloads = []workload.Workload{
		cfg.Racks[1].Workload, {},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("rack failure should propagate")
	}
	if !strings.Contains(err.Error(), "rack-b") {
		t.Errorf("error %v does not name the failing rack", err)
	}

	// Set-up runs through runner.For: in a fleet whose chunks hold
	// several racks, with two racks unbuildable in neighbouring chunks,
	// every parallelism must report the lower-index rack, byte for byte.
	tr, err := solar.DefaultHigh(4500 * 96)
	if err != nil {
		t.Fatal(err)
	}
	racks := make([]RackConfig, 96)
	for i := range racks {
		racks[i] = RackConfig{
			Rack:     rackOf(t, fmt.Sprintf("rack-%02d", i), []string{server.XeonE52620}, 4),
			Workload: mustWorkload(t, workload.SPECjbb),
			Policy:   policy.Solver{Adaptive: true},
		}
	}
	for _, i := range []int{47, 48} {
		racks[i].GroupWorkloads = []workload.Workload{{}}
	}
	fleet := Config{Racks: racks, Solar: tr, SiteGridBudgetW: 96 * 1000, Epochs: 2, Seed: 7}
	var first string
	for _, p := range []int{1, 4, 0} {
		fleet.Parallelism = p
		_, err := Run(fleet)
		if err == nil {
			t.Fatalf("parallelism %d: rack failure should propagate", p)
		}
		if !errors.Is(err, sim.ErrBadConfig) || !strings.HasPrefix(err.Error(), "cluster: rack rack-47: ") {
			t.Errorf("parallelism %d: error %q, want rack-47's bad config", p, err)
		}
		if p == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("parallelism %d: error %q, want %q as at parallelism 1", p, err, first)
		}
	}
}

// test helpers shared across cases.
func simStart() time.Time    { return time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC) }
func cfgStep() time.Duration { return 15 * time.Minute }
func constVals(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

package scenario

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"greenhetero/internal/chaos"
)

const stressDoc = `{
  "name": "mini-storm",
  "solar": {"profile": "high", "peakWatts": 32000, "days": 1, "seed": 1},
  "epochs": 24,
  "seed": 9,
  "initialSoC": 0.5,
  "fleet": {
    "allocator": "hierarchical-par",
    "siteGridBudgetW": 12800,
    "siteBattery": {"capacityWh": 192000}
  },
  "stress": {
    "zones": 4,
    "walRack": "web-0000",
    "snapshotEvery": 4,
    "fleetGen": {
      "racks": 16,
      "templates": [
        {"name": "web", "weight": 3, "policy": "GreenHetero",
         "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]},
        {"name": "batch", "weight": 1, "policy": "GreenHetero",
         "groups": [{"server": "i5-4460", "count": 8, "workload": "canneal"}]}
      ],
      "startup": {"pattern": "linear", "rampEpochs": 3, "jitterFrac": 0.2}
    },
    "chaos": [
      {"kind": "rack_crash", "atEpoch": 4, "racks": ["web-0001"],
       "fanout": 2, "depth": 2, "recoveryEpochs": 3},
      {"kind": "weather_front", "atEpoch": 6, "duration": 6, "widthRacks": 5, "depthFrac": 0.6},
      {"kind": "zone_outage", "atEpoch": 10, "duration": 3, "zone": 1},
      {"kind": "price_spike", "atEpoch": 12, "duration": 4, "priceScale": 3, "gridBudgetScale": 0.7},
      {"kind": "battery_fade", "atEpoch": 14, "fadeFrac": 0.1},
      {"kind": "daemon_crash", "atEpoch": 16, "duration": 2},
      {"kind": "workload_surge", "atEpoch": 18, "duration": 3, "intensityScale": 1.4, "racks": ["batch"]},
      {"kind": "agent_partition", "atEpoch": 19, "duration": 3, "racks": ["web-0002"]}
    ]
  }
}`

func TestParseAndBuildStorm(t *testing.T) {
	sc, err := Parse(strings.NewReader(stressDoc))
	if err != nil {
		t.Fatal(err)
	}
	storm, err := sc.BuildStorm()
	if err != nil {
		t.Fatal(err)
	}
	// 16 racks apportioned 3:1 → 12 web + 4 batch, template-major names.
	if len(storm.Fleet.Racks) != 16 {
		t.Fatalf("racks = %d, want 16", len(storm.Fleet.Racks))
	}
	if got := storm.Fleet.Racks[0].Rack.Name(); got != "web-0000" {
		t.Errorf("rack 0 = %q", got)
	}
	if got := storm.Fleet.Racks[11].Rack.Name(); got != "web-0011" {
		t.Errorf("rack 11 = %q", got)
	}
	if got := storm.Fleet.Racks[12].Rack.Name(); got != "batch-0000" {
		t.Errorf("rack 12 = %q", got)
	}
	if storm.Chaos.WALRack != 0 {
		t.Errorf("WALRack = %d, want 0 (web-0000)", storm.Chaos.WALRack)
	}
	if storm.Chaos.Zones != 4 || storm.Chaos.Epochs != 24 || storm.Chaos.Seed != 9 {
		t.Errorf("chaos config: %+v", storm.Chaos)
	}
	if len(storm.Chaos.Events) != 8 {
		t.Errorf("events = %d, want 8", len(storm.Chaos.Events))
	}
	if len(storm.Chaos.JoinEpochs) != 16 {
		t.Fatalf("join epochs = %d, want 16", len(storm.Chaos.JoinEpochs))
	}
	for i, j := range storm.Chaos.JoinEpochs {
		if j < 0 || j >= 24 {
			t.Errorf("rack %d joins at epoch %d", i, j)
		}
	}
	// The surge names a template: all 4 batch replicas resolve.
	surge := storm.Chaos.Events[6]
	if surge.Kind != chaos.KindWorkloadSurge || len(surge.Racks) != 4 || surge.Racks[0] != 12 {
		t.Errorf("surge targets = %+v", surge)
	}

	// The built storm must run end to end, never aborting an epoch, with
	// every rack-epoch accounted for in exactly one health bucket.
	res, rep, err := chaos.Run(storm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site) != 24 {
		t.Fatalf("site epochs = %d, want 24 (no aborted epochs)", len(res.Site))
	}
	if rep.Racks != 16 || rep.Epochs != 24 || rep.Seed != 9 || rep.Scenario != "mini-storm" {
		t.Errorf("report header: %+v", rep)
	}
	for _, r := range rep.PerRack {
		total := r.ServedEpochs + r.FailedEpochs + r.QuarantinedEpochs + r.AbsentEpochs
		if total != 24 {
			t.Errorf("rack %s epochs served=%d failed=%d quarantined=%d absent=%d sum=%d, want 24",
				r.Name, r.ServedEpochs, r.FailedEpochs, r.QuarantinedEpochs, r.AbsentEpochs, total)
		}
	}
	if rep.DaemonCrashes != 1 || rep.DaemonRecoveries != 1 {
		t.Errorf("daemon crashes=%d recoveries=%d, want 1/1", rep.DaemonCrashes, rep.DaemonRecoveries)
	}
	if rep.Quarantines == 0 || rep.DegradedEpochs == 0 {
		t.Errorf("storm left no marks: quarantines=%d degraded=%d", rep.Quarantines, rep.DegradedEpochs)
	}

	// Same seed, same bytes.
	b1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := chaos.Run(storm)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("stress report not byte-identical across same-seed runs")
	}

	// A non-stress scenario cannot build a storm.
	plain := &Scenario{}
	if _, err := plain.BuildStorm(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("BuildStorm on plain scenario: %v", err)
	}
}

// TestStressExplicitFleet stresses an explicit rack list (no fleetGen):
// template targets resolve to the fleet block's replica names.
func TestStressExplicitFleet(t *testing.T) {
	doc := strings.Replace(fleetDoc, `"epochs": 96`, `"epochs": 12`, 1)
	doc = strings.Replace(doc, `"fleet": {`, `"stress": {
    "chaos": [
      {"kind": "rack_crash", "atEpoch": 2, "racks": ["web"], "recoveryEpochs": 2}
    ]
  },
  "fleet": {`, 1)
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	storm, err := sc.BuildStorm()
	if err != nil {
		t.Fatal(err)
	}
	if len(storm.Fleet.Racks) != 4 {
		t.Fatalf("racks = %d, want 4", len(storm.Fleet.Racks))
	}
	crash := storm.Chaos.Events[0]
	if len(crash.Racks) != 3 || crash.Racks[0] != 0 || crash.Racks[2] != 2 {
		t.Errorf("template target resolved to %v, want web-0..web-2", crash.Racks)
	}
	if _, _, err := chaos.Run(storm); err != nil {
		t.Fatalf("explicit-fleet storm does not run: %v", err)
	}
}

func TestStressValidation(t *testing.T) {
	rep := func(old, new string) string {
		if !strings.Contains(stressDoc, old) {
			t.Fatalf("mutation target %q not in stressDoc", old)
		}
		return strings.Replace(stressDoc, old, new, 1)
	}
	// An explicit fleet whose "web-1" collides with web's second replica,
	// targeted by a crash that could mean either rack.
	colliding := strings.Replace(fleetDoc, `{"name": "batch",`, `{"name": "web-1",`, 1)
	colliding = strings.Replace(colliding, `"fleet": {`, `"stress": {
    "chaos": [{"kind": "rack_crash", "atEpoch": 2, "racks": ["web-1"], "recoveryEpochs": 2}]
  },
  "fleet": {`, 1)
	mutations := []struct {
		name string
		doc  string
	}{
		{"colliding rack names", colliding},
		{"template named like a rack", strings.Replace(rep(`"name": "batch"`, `"name": "web-0001"`),
			`"racks": ["batch"]`, `"racks": ["web-0001"]`, 1)},
		{"negative weight", rep(`"weight": 1`, `"weight": -1`)},
		{"zero-sum weights", strings.Replace(rep(`"weight": 3`, `"weight": 0`), `"weight": 1`, `"weight": 0`, 1)},
		{"zero racks", rep(`"racks": 16`, `"racks": 0`)},
		{"racks above the fleet bound", rep(`"racks": 16`, `"racks": 2000000`)},
		{"duplicate template", rep(`"name": "batch"`, `"name": "web"`)},
		{"unknown startup pattern", rep(`"pattern": "linear"`, `"pattern": "warp"`)},
		{"ramp spans whole run", rep(`"rampEpochs": 3`, `"rampEpochs": 24`)},
		{"startup jitter out of range", rep(`"jitterFrac": 0.2`, `"jitterFrac": 1.5`)},
		{"unknown kind", rep(`"kind": "zone_outage"`, `"kind": "meteor"`)},
		{"epoch out of range", rep(`"atEpoch": 4`, `"atEpoch": 99`)},
		{"windowed event without duration",
			rep(`"atEpoch": 10, "duration": 3, "zone": 1`, `"atEpoch": 10, "zone": 1`)},
		{"depthFrac out of range", rep(`"depthFrac": 0.6`, `"depthFrac": 1.6`)},
		{"fadeFrac out of range", rep(`"fadeFrac": 0.1`, `"fadeFrac": 1.0`)},
		{"unknown walRack", rep(`"walRack": "web-0000"`, `"walRack": "web-9999"`)},
		{"daemon crash without walRack", rep(`"walRack": "web-0000",`, ``)},
		{"unknown target rack", rep(`"racks": ["web-0001"]`, `"racks": ["nope-0001"]`)},
		{"overlapping same-kind events",
			rep(`{"kind": "zone_outage", "atEpoch": 10, "duration": 3, "zone": 1},`,
				`{"kind": "zone_outage", "atEpoch": 10, "duration": 3, "zone": 1},
      {"kind": "zone_outage", "atEpoch": 11, "duration": 3, "zone": 1},`)},
		{"fleetGen with explicit racks",
			rep(`"siteBattery": {"capacityWh": 192000}`,
				`"siteBattery": {"capacityWh": 192000},
    "racks": [{"name": "x", "policy": "GreenHetero",
     "groups": [{"server": "e5-2620", "count": 1, "workload": "specjbb"}]}]`)},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.doc)); err == nil {
				t.Errorf("doc parsed: %s", tt.doc)
			} else if !errors.Is(err, ErrBadScenario) {
				t.Errorf("error is not ErrBadScenario: %v", err)
			}
		})
	}
}

// JSON cannot carry NaN, but nothing stops a caller from building the
// spec in Go — validate must still reject it.
func TestStressNaNRejected(t *testing.T) {
	base, err := Parse(strings.NewReader(stressDoc))
	if err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		fn   func(*Scenario)
	}{
		{"NaN weight", func(sc *Scenario) { sc.Stress.FleetGen.Templates[0].Weight = math.NaN() }},
		{"Inf weight", func(sc *Scenario) { sc.Stress.FleetGen.Templates[0].Weight = math.Inf(1) }},
		{"NaN sloSupplyFrac", func(sc *Scenario) { sc.Stress.SLOSupplyFrac = math.NaN() }},
		{"NaN depthFrac", func(sc *Scenario) { sc.Stress.Chaos[1].DepthFrac = math.NaN() }},
	}
	for _, tt := range mutate {
		t.Run(tt.name, func(t *testing.T) {
			sc := *base
			stress := *base.Stress
			gen := *base.Stress.FleetGen
			gen.Templates = append([]RackTemplateSpec(nil), base.Stress.FleetGen.Templates...)
			stress.FleetGen = &gen
			stress.Chaos = append([]ChaosEventSpec(nil), base.Stress.Chaos...)
			sc.Stress = &stress
			tt.fn(&sc)
			if err := sc.validate(); !errors.Is(err, ErrBadScenario) {
				t.Errorf("validate: %v", err)
			}
		})
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{16, []float64{3, 1}, []int{12, 4}},
		{10, []float64{5, 3, 1}, []int{6, 3, 1}},
		{1000, []float64{6, 3, 1}, []int{600, 300, 100}},
		{3, []float64{1, 1}, []int{2, 1}},
		{5, []float64{0, 1}, []int{0, 5}},
	}
	for _, tt := range cases {
		got := apportion(tt.total, tt.weights)
		sum := 0
		for _, c := range got {
			sum += c
		}
		if sum != tt.total {
			t.Errorf("apportion(%d, %v) = %v, sum %d", tt.total, tt.weights, got, sum)
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("apportion(%d, %v) = %v, want %v", tt.total, tt.weights, got, tt.want)
				break
			}
		}
	}
}

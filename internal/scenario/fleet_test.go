package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"greenhetero/internal/cluster"
)

const fleetDoc = `{
  "name": "small-site",
  "solar": {"profile": "high", "peakWatts": 90000, "days": 2, "seed": 1},
  "epochs": 96,
  "seed": 7,
  "initialSoC": 0.9,
  "fleet": {
    "allocator": "hierarchical-par",
    "siteGridBudgetW": 16000,
    "siteBattery": {"capacityWh": 200000},
    "racks": [
      {"name": "web", "count": 3, "policy": "GreenHetero",
       "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]},
      {"name": "batch", "policy": "GreenHetero",
       "groups": [{"server": "i5-4460", "count": 8, "workload": "canneal"}]}
    ]
  }
}`

func TestParseAndBuildFleet(t *testing.T) {
	sc, err := Parse(strings.NewReader(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.BuildFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Racks) != 4 {
		t.Fatalf("racks = %d, want 3 web replicas + 1 batch", len(cfg.Racks))
	}
	wantNames := []string{"web-0", "web-1", "web-2", "batch"}
	for i, want := range wantNames {
		if got := cfg.Racks[i].Rack.Name(); got != want {
			t.Errorf("rack %d = %q, want %q", i, got, want)
		}
		if len(cfg.Racks[i].GroupWorkloads) != cfg.Racks[i].Rack.NumGroups() {
			t.Errorf("rack %d group workloads misaligned", i)
		}
	}
	if cfg.Allocator.Name() != "hierarchical-par" {
		t.Errorf("allocator = %q", cfg.Allocator.Name())
	}
	if cfg.SiteBattery.CapacityWh != 200000 || cfg.SiteBattery.DepthOfDischarge != 0.40 || cfg.SiteBattery.Efficiency != 0.80 {
		t.Errorf("site battery = %+v, want defaults filled", cfg.SiteBattery)
	}
	if cfg.SiteGridBudgetW != 16000 || cfg.Epochs != 96 || cfg.Seed != 7 || cfg.InitialSoC != 0.9 {
		t.Errorf("site fields: %+v", cfg)
	}
	// The built config must be runnable end to end.
	cfg.Epochs = 4
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatalf("built fleet does not run: %v", err)
	}
	// A fleet scenario cannot build as a single rack, and vice versa.
	if _, err := sc.Build(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("Build on fleet scenario: %v", err)
	}
	single := &Scenario{}
	if _, err := single.BuildFleet(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("BuildFleet on single-rack scenario: %v", err)
	}
}

// TestManualFleetParallel runs a fleet of four Manual replicas at
// parallelism 1 and 2, and the two runs must print identically. Manual
// fills a table of trial results as it goes, so replicas that shared
// one instance would race on it (reported under -race), and a rack's
// result would depend on which rack filled an entry first.
func TestManualFleetParallel(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{
  "name": "manual-site",
  "solar": {"profile": "high", "peakWatts": 20000, "days": 1, "seed": 1},
  "epochs": 48,
  "seed": 7,
  "fleet": {
    "allocator": "hierarchical-par",
    "siteGridBudgetW": 2000,
    "racks": [
      {"name": "manual", "count": 4, "policy": "Manual",
       "groups": [{"server": "e5-2620", "count": 3, "workload": "specjbb"},
                  {"server": "i5-4460", "count": 3, "workload": "specjbb"}]}
    ]
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, par := range []int{1, 2} {
		cfg, err := sc.BuildFleet()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallelism = par
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Racks {
			fmt.Fprintf(&b, "%s %+v\n", r.Name, *r.Result)
		}
		fmt.Fprintf(&b, "%+v %+v %d", res.Site, res.Health, res.BatteryCycles)
		if par == 1 {
			want = b.String()
		} else if got := b.String(); got != want {
			t.Fatalf("parallelism %d differs from parallelism 1:\n%s\n%s", par, got, want)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	mutations := []struct {
		name string
		doc  string
	}{
		{"fleet and groups", strings.Replace(fleetDoc, `"fleet": {`,
			`"groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}], "fleet": {`, 1)},
		{"no racks", strings.Replace(fleetDoc, `"racks": [`, `"racks2": [`, 1)},
		{"missing rack name", strings.Replace(fleetDoc, `"name": "web", `, ``, 1)},
		{"missing rack policy", strings.Replace(fleetDoc, `"policy": "GreenHetero",
       "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]`, `"groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]`, 1)},
		{"fleet above the rack bound", strings.Replace(fleetDoc, `"count": 3`, `"count": 2000000`, 1)},
		{"colliding rack names", strings.Replace(fleetDoc, `{"name": "batch",`, `{"name": "web-1",`, 1)},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.doc)); err == nil {
				t.Errorf("doc parsed: %s", tt.doc)
			}
		})
	}
}

func TestFleetUnknownAllocator(t *testing.T) {
	doc := strings.Replace(fleetDoc, "hierarchical-par", "nope", 1)
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.BuildFleet(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown allocator: %v", err)
	}
}

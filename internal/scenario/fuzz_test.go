package scenario

import (
	"bytes"
	"testing"
)

// FuzzLoadScenario hardens the scenario loader against malformed or
// adversarial documents: Parse must either return an error or a
// scenario that satisfies every validate() invariant — never panic.
// Scenarios that parse are additionally pushed through Build, which
// must resolve cleanly or fail with an error (catalog lookups, solar
// generation). Build is only attempted for generator-backed scenarios:
// a TraceFile path would let the fuzzer open arbitrary files.
func FuzzLoadScenario(f *testing.F) {
	f.Add([]byte(`{
		"name": "mixed-rack-demo",
		"groups": [
			{"server": "e5-2620", "count": 5, "workload": "specjbb"},
			{"server": "i5-4460", "count": 5, "workload": "memcached"}
		],
		"policy": "GreenHetero",
		"solar": {"profile": "high", "peakWatts": 2200, "days": 7, "seed": 1},
		"epochs": 96,
		"gridBudgetW": 1000,
		"initialSoC": 1.0,
		"seed": 7
	}`))
	f.Add([]byte(`{"name":"t","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}],"policy":"Uniform","solar":{"profile":"low","peakWatts":100},"epochs":1}`))
	f.Add([]byte(`{"name":"t","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}],"policy":"Uniform","traceFile":"x.csv","epochs":4}`))
	f.Add([]byte(`{"name":"","groups":[],"epochs":0}`))
	f.Add([]byte(`{"name":"t","groups":[{"server":"nope","count":-3,"workload":"??"}],"policy":"??","solar":{"profile":"??","peakWatts":-1,"days":-1},"epochs":1}`))
	f.Add([]byte(`{"unknown":"field"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(fleetDoc))
	f.Add([]byte(stressDoc))
	f.Add([]byte(`{"name":"s","solar":{"profile":"low","peakWatts":100},"epochs":8,"fleet":{},"stress":{"fleetGen":{"racks":4,"templates":[{"name":"a","weight":0,"policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]}]}}}`))
	f.Add([]byte(`{"name":"s","solar":{"profile":"low","peakWatts":100},"epochs":8,"fleet":{},"stress":{"fleetGen":{"racks":2,"templates":[{"name":"a","weight":-1,"policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]}]}}}`))
	f.Add([]byte(`{"name":"s","solar":{"profile":"low","peakWatts":100},"epochs":8,"fleet":{},"stress":{"chaos":[{"kind":"zone_outage","atEpoch":1,"duration":2,"zone":1},{"kind":"zone_outage","atEpoch":2,"duration":2,"zone":1}],"fleetGen":{"racks":2,"templates":[{"name":"a","weight":1,"policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]}]}}}`))
	f.Add([]byte(`{"name":"s","solar":{"profile":"low","peakWatts":100},"epochs":8,"fleet":{},"stress":{"chaos":[{"kind":"daemon_crash","atEpoch":1,"duration":2}],"fleetGen":{"racks":2,"templates":[{"name":"a","weight":1,"policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]}]}}}`))
	// Two racks named "web-1": web's second replica and an explicit rack.
	f.Add([]byte(`{"name":"s","solar":{"profile":"low","peakWatts":100},"epochs":8,"fleet":{"racks":[{"name":"web","count":2,"policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]},{"name":"web-1","policy":"Uniform","groups":[{"server":"e5-2620","count":1,"workload":"specjbb"}]}]},"stress":{"chaos":[{"kind":"rack_crash","atEpoch":1,"racks":["web-1"],"recoveryEpochs":2}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(bytes.NewReader(data))
		if err != nil {
			if sc != nil {
				t.Fatalf("Parse returned both a scenario and error %v", err)
			}
			return
		}
		// Parse accepted it: the validate() invariants must hold.
		switch {
		case sc.Name == "":
			t.Fatal("accepted scenario with empty name")
		case sc.Epochs < 1:
			t.Fatalf("accepted scenario with epochs %d", sc.Epochs)
		case sc.Solar == nil && sc.TraceFile == "":
			t.Fatal("accepted scenario with no power source")
		case sc.Solar != nil && sc.TraceFile != "":
			t.Fatal("accepted scenario with both solar and traceFile")
		case sc.Stress != nil && sc.Fleet == nil:
			t.Fatal("accepted stress block without a fleet")
		}
		if sc.TraceFile != "" {
			return // don't let fuzz inputs open arbitrary paths
		}
		if sc.Fleet != nil {
			fuzzFleet(t, sc)
			return
		}
		switch {
		case len(sc.Groups) == 0:
			t.Fatal("accepted scenario with no groups")
		case sc.Policy == "":
			t.Fatal("accepted scenario with empty policy")
		}
		cfg, err := sc.Build()
		if err != nil {
			return // bad catalog ids etc. must error, not panic
		}
		if cfg.Rack == nil || cfg.Solar == nil || cfg.Policy == nil {
			t.Fatal("Build returned an incomplete config without error")
		}
		if cfg.Epochs != sc.Epochs || cfg.Seed != sc.Seed {
			t.Fatalf("Build dropped fields: epochs %d→%d seed %d→%d",
				sc.Epochs, cfg.Epochs, sc.Seed, cfg.Seed)
		}
	})
}

// fuzzFleet checks fleet/stress invariants on an accepted scenario.
// Builds are skipped for fleets large enough that expanding the racks
// would dominate the fuzz budget.
func fuzzFleet(t *testing.T, sc *Scenario) {
	generated := sc.Stress != nil && sc.Stress.FleetGen != nil
	switch {
	case len(sc.Groups) != 0 || sc.Policy != "":
		t.Fatal("accepted fleet scenario with single-rack fields")
	case !generated && len(sc.Fleet.Racks) == 0:
		t.Fatal("accepted fleet scenario with no racks and no generator")
	case generated && len(sc.Fleet.Racks) != 0:
		t.Fatal("accepted both fleet.racks and stress.fleetGen")
	}
	size := 0
	if generated {
		size = sc.Stress.FleetGen.Racks
		for _, tmpl := range sc.Stress.FleetGen.Templates {
			if badFrac(tmpl.Weight) || tmpl.Weight < 0 {
				t.Fatalf("accepted template weight %v", tmpl.Weight)
			}
		}
	} else {
		for _, r := range sc.Fleet.Racks {
			n := r.Count
			if n == 0 {
				n = 1
			}
			size += n
		}
	}
	if size > 64 {
		return // validation already ran; building huge fleets is just slow
	}
	if sc.Stress != nil {
		storm, err := sc.BuildStorm()
		if err != nil {
			return // catalog misses etc. must error, not panic
		}
		if len(storm.Fleet.Racks) != storm.Chaos.Racks && storm.Chaos.Racks != 0 {
			t.Fatalf("storm schedule sized for %d racks, fleet has %d",
				storm.Chaos.Racks, len(storm.Fleet.Racks))
		}
		return
	}
	cfg, err := sc.BuildFleet()
	if err != nil {
		return
	}
	if len(cfg.Racks) == 0 || cfg.Solar == nil {
		t.Fatal("BuildFleet returned an incomplete config without error")
	}
}

// Package scenario loads simulation scenarios from JSON files, so
// operators can describe racks (including mixed per-group workloads),
// traces, and power infrastructure declaratively instead of through CLI
// flags:
//
//	{
//	  "name": "mixed-rack-demo",
//	  "groups": [
//	    {"server": "e5-2620", "count": 5, "workload": "specjbb"},
//	    {"server": "i5-4460", "count": 5, "workload": "memcached"}
//	  ],
//	  "policy": "GreenHetero",
//	  "solar": {"profile": "high", "peakWatts": 2200, "days": 7, "seed": 1},
//	  "epochs": 96,
//	  "gridBudgetW": 1000,
//	  "initialSoC": 1.0,
//	  "seed": 7
//	}
//
// A "traceFile" path (CSV written by ghtrace) may replace the "solar"
// generator block.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"greenhetero/internal/policy"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

// GroupSpec is one rack group in the scenario file.
type GroupSpec struct {
	Server   string `json:"server"`
	Count    int    `json:"count"`
	Workload string `json:"workload"`
}

// SolarSpec configures the synthetic trace generator.
type SolarSpec struct {
	Profile   string  `json:"profile"`
	PeakWatts float64 `json:"peakWatts"`
	Days      int     `json:"days"`
	Seed      int64   `json:"seed"`
}

// Scenario is the file schema. Either the single-rack fields (Groups,
// Policy, GridBudgetW) or the Fleet block is set, never both.
type Scenario struct {
	Name        string      `json:"name"`
	Groups      []GroupSpec `json:"groups,omitempty"`
	Policy      string      `json:"policy,omitempty"`
	Solar       *SolarSpec  `json:"solar,omitempty"`
	TraceFile   string      `json:"traceFile,omitempty"`
	Epochs      int         `json:"epochs"`
	GridBudgetW float64     `json:"gridBudgetW,omitempty"`
	InitialSoC  float64     `json:"initialSoC,omitempty"`
	Seed        int64       `json:"seed,omitempty"`
	// Fleet describes a multi-rack site run (see fleet.go).
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Stress turns a fleet scenario into a seeded failure storm (see
	// stress.go): generated heterogeneous fleets plus a chaos schedule.
	Stress *StressSpec `json:"stress,omitempty"`
}

// ErrBadScenario is returned for structurally invalid scenarios.
var ErrBadScenario = errors.New("scenario: bad scenario")

// Parse decodes a scenario document.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile reads and parses a scenario file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("%w: missing name", ErrBadScenario)
	case sc.Epochs < 1:
		return fmt.Errorf("%w: epochs %d", ErrBadScenario, sc.Epochs)
	case sc.Solar == nil && sc.TraceFile == "":
		return fmt.Errorf("%w: need solar generator or traceFile", ErrBadScenario)
	case sc.Solar != nil && sc.TraceFile != "":
		return fmt.Errorf("%w: solar and traceFile are mutually exclusive", ErrBadScenario)
	}
	if sc.Stress != nil && sc.Fleet == nil {
		return fmt.Errorf("%w: stress requires a fleet block", ErrBadScenario)
	}
	if sc.Fleet != nil {
		if len(sc.Groups) != 0 || sc.Policy != "" || sc.GridBudgetW != 0 {
			return fmt.Errorf("%w: fleet and single-rack fields (groups/policy/gridBudgetW) are mutually exclusive", ErrBadScenario)
		}
		generated := sc.Stress != nil && sc.Stress.FleetGen != nil
		if err := sc.Fleet.validate(generated); err != nil {
			return err
		}
		if sc.Stress != nil {
			return sc.Stress.validate(sc)
		}
		_, _, err := sc.expandFleet()
		return err
	}
	switch {
	case len(sc.Groups) == 0:
		return fmt.Errorf("%w: no groups", ErrBadScenario)
	case sc.Policy == "":
		return fmt.Errorf("%w: missing policy", ErrBadScenario)
	}
	return nil
}

// Build resolves a single-rack scenario into a runnable simulation
// config. Fleet scenarios build through BuildFleet instead.
func (sc *Scenario) Build() (sim.Config, error) {
	if sc.Fleet != nil {
		return sim.Config{}, fmt.Errorf("%w: fleet scenario; use BuildFleet", ErrBadScenario)
	}
	rack, sorted, err := buildRack(sc.Name, sc.Groups)
	if err != nil {
		return sim.Config{}, err
	}
	p, err := policy.ByName(sc.Policy)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario: %w", err)
	}
	tr, err := sc.buildTrace()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Rack:           rack,
		GroupWorkloads: sorted,
		Policy:         p,
		Solar:          tr,
		Epochs:         sc.Epochs,
		GridBudgetW:    sc.GridBudgetW,
		InitialSoC:     sc.InitialSoC,
		Seed:           sc.Seed,
	}, nil
}

// buildRack resolves group specs into a rack and its aligned per-group
// workloads (NewRack sorts groups by server id, so the workloads are
// realigned to match).
func buildRack(name string, specs []GroupSpec) (*server.Rack, []workload.Workload, error) {
	groups := make([]server.Group, 0, len(specs))
	groupWs := make([]workload.Workload, 0, len(specs))
	for i, g := range specs {
		spec, err := server.Lookup(g.Server)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: group %d: %w", i, err)
		}
		w, err := workload.Lookup(g.Workload)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: group %d: %w", i, err)
		}
		groups = append(groups, server.Group{Spec: spec, Count: g.Count})
		groupWs = append(groupWs, w)
	}
	rack, err := server.NewRack(name, groups...)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	sorted := make([]workload.Workload, 0, len(groupWs))
	for _, g := range rack.Groups() {
		for i, spec := range specs {
			if spec.Server == g.Spec.ID {
				sorted = append(sorted, groupWs[i])
				break
			}
		}
	}
	return rack, sorted, nil
}

// buildTrace resolves the scenario's solar generator or trace file.
func (sc *Scenario) buildTrace() (*trace.Trace, error) {
	if sc.Solar != nil {
		profile, err := solar.ParseProfile(sc.Solar.Profile)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		days := sc.Solar.Days
		if days == 0 {
			days = 7
		}
		tr, err := solar.Generate(solar.Config{
			Profile:   profile,
			PeakWatts: sc.Solar.PeakWatts,
			Days:      days,
			Step:      15 * time.Minute,
			Seed:      sc.Solar.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		return tr, nil
	}
	f, err := os.Open(sc.TraceFile)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f, sc.TraceFile, 15*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return tr, nil
}

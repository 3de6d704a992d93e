// Fleet scenarios: a declarative multi-rack site run for the cluster
// coordinator. Rack templates expand by replica count, and the site
// block names the allocator, the shared battery, and the grid cap:
//
//	{
//	  "name": "small-site",
//	  "solar": {"profile": "high", "peakWatts": 90000, "days": 2, "seed": 1},
//	  "epochs": 96,
//	  "seed": 7,
//	  "fleet": {
//	    "allocator": "hierarchical-par",
//	    "siteGridBudgetW": 16000,
//	    "siteBattery": {"capacityWh": 200000},
//	    "racks": [
//	      {"name": "web", "count": 12, "policy": "GreenHetero",
//	       "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]},
//	      {"name": "batch", "count": 4, "policy": "GreenHetero",
//	       "groups": [{"server": "i5-4460", "count": 8, "workload": "canneal"}]}
//	    ]
//	  }
//	}
package scenario

import (
	"fmt"
	"math"

	"greenhetero/internal/battery"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
)

// FleetRackSpec is one rack template; Count > 1 expands it into
// replicas named "<name>-<i>".
type FleetRackSpec struct {
	Name   string      `json:"name"`
	Count  int         `json:"count,omitempty"` // replicas; 0 means 1
	Groups []GroupSpec `json:"groups"`
	Policy string      `json:"policy"`
}

// BatterySpec configures the shared site bank. Zero DoD and efficiency
// take the paper's defaults (0.40, 0.80).
type BatterySpec struct {
	CapacityWh       float64 `json:"capacityWh"`
	DepthOfDischarge float64 `json:"depthOfDischarge,omitempty"`
	Efficiency       float64 `json:"efficiency,omitempty"`
	MaxChargeW       float64 `json:"maxChargeW,omitempty"`
	MaxDischargeW    float64 `json:"maxDischargeW,omitempty"`
}

// FleetSpec is the scenario file's fleet block.
type FleetSpec struct {
	Racks           []FleetRackSpec `json:"racks"`
	Allocator       string          `json:"allocator,omitempty"` // default "uniform"
	SiteBattery     *BatterySpec    `json:"siteBattery,omitempty"`
	SiteGridBudgetW float64         `json:"siteGridBudgetW,omitempty"`
}

// maxFleetRacks bounds a fleet's size. Validation names every rack, so
// an absurd count would allocate gigabytes before anything runs.
const maxFleetRacks = 1 << 20

// validate checks the fleet block. With a stress fleet generator
// (generated), the explicit rack list must be absent — the generator
// supplies the racks instead.
func (f *FleetSpec) validate(generated bool) error {
	if generated {
		if len(f.Racks) != 0 {
			return fmt.Errorf("%w: fleet.racks and stress.fleetGen are mutually exclusive", ErrBadScenario)
		}
		return nil
	}
	if len(f.Racks) == 0 {
		return fmt.Errorf("%w: fleet has no racks", ErrBadScenario)
	}
	total := 0
	for i, r := range f.Racks {
		switch {
		case r.Name == "":
			return fmt.Errorf("%w: fleet rack %d missing name", ErrBadScenario, i)
		case len(r.Groups) == 0:
			return fmt.Errorf("%w: fleet rack %q has no groups", ErrBadScenario, r.Name)
		case r.Policy == "":
			return fmt.Errorf("%w: fleet rack %q missing policy", ErrBadScenario, r.Name)
		case r.Count < 0 || r.Count > maxFleetRacks:
			return fmt.Errorf("%w: fleet rack %q count %d", ErrBadScenario, r.Name, r.Count)
		}
		if total += max(r.Count, 1); total > maxFleetRacks {
			return fmt.Errorf("%w: fleet of more than %d racks", ErrBadScenario, maxFleetRacks)
		}
	}
	return nil
}

// fleetTemplate is one rack template with its replicas' names in fleet
// order.
type fleetTemplate struct {
	name, policy string
	groups       []GroupSpec
	racks        []string
}

// expandFleet names every rack of the fleet, grouped by template in
// fleet order: a stress generator's replicas are "<template>-NNNN",
// apportioned by weight; an explicit rack with count > 1 expands to
// "<name>-<i>", otherwise it keeps its name. It is the one place racks
// are named, so validation, BuildFleet and BuildStorm agree on which
// rack an event target means. It also maps each name to its fleet
// index, and rejects a name two racks would share or a template name
// that is another rack's name.
func (sc *Scenario) expandFleet() ([]fleetTemplate, map[string]int, error) {
	var tmpls []fleetTemplate
	if st := sc.Stress; st != nil && st.FleetGen != nil {
		g := st.FleetGen
		weights := make([]float64, len(g.Templates))
		for i, t := range g.Templates {
			weights[i] = t.Weight
		}
		for i, n := range apportion(g.Racks, weights) {
			t := g.Templates[i]
			ft := fleetTemplate{name: t.Name, policy: t.Policy, groups: t.Groups}
			for j := 0; j < n; j++ {
				ft.racks = append(ft.racks, fmt.Sprintf("%s-%04d", t.Name, j))
			}
			tmpls = append(tmpls, ft)
		}
	} else {
		for _, r := range sc.Fleet.Racks {
			ft := fleetTemplate{name: r.Name, policy: r.Policy, groups: r.Groups}
			if r.Count > 1 {
				for j := 0; j < r.Count; j++ {
					ft.racks = append(ft.racks, fmt.Sprintf("%s-%d", r.Name, j))
				}
			} else {
				ft.racks = []string{r.Name}
			}
			tmpls = append(tmpls, ft)
		}
	}
	index := make(map[string]int)
	for _, t := range tmpls {
		for _, name := range t.racks {
			if j, dup := index[name]; dup {
				return nil, nil, fmt.Errorf("%w: racks %d and %d share the name %q", ErrBadScenario, j, len(index), name)
			}
			index[name] = len(index)
		}
	}
	// A target names a template or a rack; it must not name both.
	for _, t := range tmpls {
		if i, ok := index[t.name]; ok && (len(t.racks) != 1 || t.racks[0] != t.name) {
			return nil, nil, fmt.Errorf("%w: template %q is also the name of rack %d", ErrBadScenario, t.name, i)
		}
	}
	return tmpls, index, nil
}

// apportion splits total replicas across weights by largest remainder.
func apportion(total int, weights []float64) []int {
	counts := make([]int, len(weights))
	var sum float64
	for _, w := range weights {
		sum += w
	}
	rem := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(math.Floor(exact))
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < total {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}

// BuildFleet resolves a fleet scenario, explicit or generated, into a
// cluster configuration. A stress scenario's storm builds through
// BuildStorm.
func (sc *Scenario) BuildFleet() (cluster.Config, error) {
	if sc.Fleet == nil {
		return cluster.Config{}, fmt.Errorf("%w: not a fleet scenario; use Build", ErrBadScenario)
	}
	tmpls, _, err := sc.expandFleet()
	if err != nil {
		return cluster.Config{}, err
	}
	return sc.buildFleet(tmpls)
}

// buildFleet builds the expanded racks, one policy instance per rack
// (a stateful policy such as Manual must not be shared by racks that
// step concurrently), and assembles the site configuration around them.
func (sc *Scenario) buildFleet(tmpls []fleetTemplate) (cluster.Config, error) {
	f := sc.Fleet
	var racks []cluster.RackConfig
	for _, t := range tmpls {
		for _, name := range t.racks {
			p, err := policy.ByName(t.policy)
			if err != nil {
				return cluster.Config{}, fmt.Errorf("scenario: rack template %q: %w", t.name, err)
			}
			rack, groupWs, err := buildRack(name, t.groups)
			if err != nil {
				return cluster.Config{}, fmt.Errorf("scenario: rack %q: %w", name, err)
			}
			racks = append(racks, cluster.RackConfig{
				Rack:           rack,
				GroupWorkloads: groupWs,
				Policy:         p,
			})
		}
	}

	var alloc cluster.Allocator
	if f.Allocator != "" {
		a, err := cluster.AllocatorByName(f.Allocator)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("scenario: %w", err)
		}
		alloc = a
	}

	var siteBattery battery.Config
	if b := f.SiteBattery; b != nil {
		siteBattery = battery.Config{
			CapacityWh:       b.CapacityWh,
			DepthOfDischarge: b.DepthOfDischarge,
			Efficiency:       b.Efficiency,
			MaxChargeW:       b.MaxChargeW,
			MaxDischargeW:    b.MaxDischargeW,
		}
		if siteBattery.DepthOfDischarge == 0 {
			siteBattery.DepthOfDischarge = 0.40
		}
		if siteBattery.Efficiency == 0 {
			siteBattery.Efficiency = 0.80
		}
	}

	tr, err := sc.buildTrace()
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Racks:           racks,
		Solar:           tr,
		Allocator:       alloc,
		SiteBattery:     siteBattery,
		SiteGridBudgetW: f.SiteGridBudgetW,
		InitialSoC:      sc.InitialSoC,
		Epochs:          sc.Epochs,
		Seed:            sc.Seed,
	}, nil
}

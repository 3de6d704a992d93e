// Stress scenarios: a "stress" block turns a fleet scenario into a
// seeded failure storm. "fleetGen" generates a heterogeneous fleet from
// weighted rack templates with a startup pattern, and "chaos" schedules
// domain events over the run:
//
//	"stress": {
//	  "fleetGen": {
//	    "racks": 1000,
//	    "templates": [
//	      {"name": "web", "weight": 6, "policy": "GreenHetero",
//	       "groups": [{"server": "e5-2620", "count": 5, "workload": "specjbb"}]},
//	      {"name": "batch", "weight": 1, "policy": "GreenHetero",
//	       "groups": [{"server": "i5-4460", "count": 8, "workload": "canneal"}]}
//	    ],
//	    "startup": {"pattern": "wave", "rampEpochs": 4, "waves": 4, "jitterFrac": 0.25}
//	  },
//	  "zones": 8,
//	  "walRack": "web-0000",
//	  "chaos": [
//	    {"kind": "rack_crash", "atEpoch": 6, "racks": ["web-0003"],
//	     "fanout": 3, "depth": 3, "recoveryEpochs": 6, "jitterFrac": 0.3},
//	    {"kind": "weather_front", "atEpoch": 10, "duration": 16,
//	     "widthRacks": 220, "depthFrac": 0.7}
//	  ]
//	}
//
// Event targets name either a template (all its replicas) or one
// generated rack ("web-0007"). Validation rejects NaN/negative and
// zero-sum template weights, rack names two racks would share, and
// same-kind chaos events whose nominal windows overlap on intersecting
// targets, so a storm schedule is unambiguous before anything runs.
// Event parameters answer to chaos.Config.Validate, the engine's own
// rule table, once targets are resolved to rack indices.
package scenario

import (
	"fmt"
	"math"
	"slices"

	"greenhetero/internal/breaker"
	"greenhetero/internal/chaos"
)

// RackTemplateSpec is one weighted rack template in the fleet
// generator; replica counts follow the weights (largest remainder).
type RackTemplateSpec struct {
	Name   string      `json:"name"`
	Weight float64     `json:"weight"`
	Groups []GroupSpec `json:"groups"`
	Policy string      `json:"policy"`
}

// StartupSpec staggers generated racks' join epochs (see
// chaos.JoinEpochs).
type StartupSpec struct {
	Pattern    string  `json:"pattern"`
	RampEpochs int     `json:"rampEpochs,omitempty"`
	Waves      int     `json:"waves,omitempty"`
	JitterFrac float64 `json:"jitterFrac,omitempty"`
}

// FleetGenSpec generates a fleet of Racks replicas apportioned across
// the weighted templates, named "<template>-NNNN" in template order.
type FleetGenSpec struct {
	Racks     int                `json:"racks"`
	Templates []RackTemplateSpec `json:"templates"`
	Startup   *StartupSpec       `json:"startup,omitempty"`
}

// ChaosEventSpec is one scheduled chaos event: chaos.Event's fields
// under their JSON names, with targets named instead of indexed. Only
// the fields its kind documents in internal/chaos are read.
type ChaosEventSpec struct {
	chaos.Event
	// Racks names targets: a template name covers all its replicas, any
	// other entry must match a generated rack exactly. Empty means the
	// whole fleet for surge/partition kinds.
	Racks []string `json:"racks,omitempty"`
}

// StressSpec is the scenario file's stress block.
type StressSpec struct {
	// FleetGen generates the fleet; without it the explicit fleet.racks
	// list is stressed instead.
	FleetGen *FleetGenSpec `json:"fleetGen,omitempty"`
	// Chaos is the storm schedule.
	Chaos []ChaosEventSpec `json:"chaos,omitempty"`
	// Zones partitions racks for zone outages (rack i in zone i mod
	// Zones; default 4).
	Zones int `json:"zones,omitempty"`
	// SLOSupplyFrac is the stress report's SLO floor (default 0.5).
	SLOSupplyFrac float64 `json:"sloSupplyFrac,omitempty"`
	// WALRack names the rack whose daemon is checkpointed through the
	// WAL layer; required for daemon_crash events.
	WALRack string `json:"walRack,omitempty"`
	// SnapshotEvery is the WAL snapshot cadence in commits (default 8).
	SnapshotEvery int `json:"snapshotEvery,omitempty"`
	// Breaker tunes the per-rack circuit breaker.
	Breaker *breaker.Config `json:"breaker,omitempty"`
}

func badFrac(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// validate checks the stress block against its scenario: the block's
// own fields here, the schedule through chaos.Config.Validate once its
// names are resolved. The fleet block has already been validated.
func (st *StressSpec) validate(sc *Scenario) error {
	if st.Zones < 0 {
		return fmt.Errorf("%w: stress zones %d", ErrBadScenario, st.Zones)
	}
	if badFrac(st.SLOSupplyFrac) || st.SLOSupplyFrac < 0 || st.SLOSupplyFrac > 1 {
		return fmt.Errorf("%w: stress sloSupplyFrac %v outside [0,1]", ErrBadScenario, st.SLOSupplyFrac)
	}
	if st.SnapshotEvery < 0 {
		return fmt.Errorf("%w: stress snapshotEvery %d", ErrBadScenario, st.SnapshotEvery)
	}
	if g := st.FleetGen; g != nil {
		if err := g.validate(sc); err != nil {
			return err
		}
	}
	tmpls, index, err := sc.expandFleet()
	if err != nil {
		return err
	}
	cfg, err := st.chaosConfig(sc, tmpls, index)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	return checkOverlaps(cfg.Events)
}

// validate checks the generator's templates. The startup block only
// needs its ramp to fit the run here; chaos.JoinEpochs checks the rest
// when the schedule is resolved.
func (g *FleetGenSpec) validate(sc *Scenario) error {
	if g.Racks < 1 || g.Racks > maxFleetRacks {
		return fmt.Errorf("%w: fleetGen racks %d", ErrBadScenario, g.Racks)
	}
	if len(g.Templates) == 0 {
		return fmt.Errorf("%w: fleetGen has no templates", ErrBadScenario)
	}
	var sum float64
	seen := map[string]bool{}
	for i, t := range g.Templates {
		switch {
		case t.Name == "":
			return fmt.Errorf("%w: fleetGen template %d missing name", ErrBadScenario, i)
		case seen[t.Name]:
			return fmt.Errorf("%w: fleetGen template %q duplicated", ErrBadScenario, t.Name)
		case badFrac(t.Weight) || t.Weight < 0:
			return fmt.Errorf("%w: fleetGen template %q weight %v (must be finite and non-negative)", ErrBadScenario, t.Name, t.Weight)
		case len(t.Groups) == 0:
			return fmt.Errorf("%w: fleetGen template %q has no groups", ErrBadScenario, t.Name)
		case t.Policy == "":
			return fmt.Errorf("%w: fleetGen template %q missing policy", ErrBadScenario, t.Name)
		}
		seen[t.Name] = true
		sum += t.Weight
	}
	if sum <= 0 {
		return fmt.Errorf("%w: fleetGen template weights sum to %v (zero-sum fleet)", ErrBadScenario, sum)
	}
	if s := g.Startup; s != nil && s.RampEpochs >= sc.Epochs {
		return fmt.Errorf("%w: startup ramp %d epochs of %d", ErrBadScenario, s.RampEpochs, sc.Epochs)
	}
	return nil
}

// nominalWindow is an event's epoch span for overlap checking: the
// scheduled window, or for cascades the seed-to-nominal-recovery span.
func nominalWindow(ev chaos.Event) (int, int) {
	switch ev.Kind {
	case chaos.KindRackCrash:
		return ev.At, ev.At + ev.Depth + ev.RecoveryEpochs
	case chaos.KindBatteryFade:
		return ev.At, ev.At + 1
	case chaos.KindDaemonCrash:
		return ev.At, ev.At + 1 + ev.Duration
	default:
		return ev.At, ev.At + ev.Duration
	}
}

// checkOverlaps rejects same-kind events whose nominal windows overlap
// on intersecting targets — an ambiguous schedule (which event owns the
// rack's downtime?) that would also make reports unattributable.
func checkOverlaps(events []chaos.Event) error {
	for i, a := range events {
		for j := i + 1; j < len(events); j++ {
			b := events[j]
			if a.Kind != b.Kind {
				continue
			}
			aFrom, aTo := nominalWindow(a)
			bFrom, bTo := nominalWindow(b)
			if aFrom >= bTo || bFrom >= aTo {
				continue
			}
			if a.Kind == chaos.KindZoneOutage && a.Zone != b.Zone {
				continue
			}
			if (a.Kind == chaos.KindRackCrash || a.Kind == chaos.KindWorkloadSurge || a.Kind == chaos.KindAgentPartition) &&
				!targetsIntersect(a.Racks, b.Racks) {
				continue
			}
			return fmt.Errorf("%w: chaos events %d and %d (%s) overlap on epochs [%d,%d)∩[%d,%d) with intersecting targets",
				ErrBadScenario, i, j, a.Kind, aFrom, aTo, bFrom, bTo)
		}
	}
	return nil
}

// targetsIntersect reports whether two resolved target sets share a
// rack; nil means the whole fleet.
func targetsIntersect(a, b []int) bool {
	if a == nil || b == nil {
		return true
	}
	set := make(map[int]bool, len(a))
	for _, r := range a {
		set[r] = true
	}
	for _, r := range b {
		if set[r] {
			return true
		}
	}
	return false
}

// chaosConfig resolves the stress block against the expanded fleet: the
// zone default, the WAL rack, the startup join epochs and every event's
// targets. Validation and BuildStorm both build the schedule here, so
// it cannot differ between them.
func (st *StressSpec) chaosConfig(sc *Scenario, tmpls []fleetTemplate, index map[string]int) (chaos.Config, error) {
	cfg := chaos.Config{
		Racks:   len(index),
		Zones:   st.Zones,
		Epochs:  sc.Epochs,
		Seed:    sc.Seed,
		WALRack: -1,
	}
	if cfg.Zones == 0 {
		cfg.Zones = 4
	}
	if st.WALRack != "" {
		i, ok := index[st.WALRack]
		if !ok {
			return cfg, fmt.Errorf("%w: stress walRack: no rack named %q", ErrBadScenario, st.WALRack)
		}
		cfg.WALRack = i
	}
	if g := st.FleetGen; g != nil && g.Startup != nil {
		s := g.Startup
		joins, err := chaos.JoinEpochs(cfg.Racks, s.Pattern, s.RampEpochs, s.Waves, s.JitterFrac, sc.Seed)
		if err != nil {
			return cfg, fmt.Errorf("%w: startup: %v", ErrBadScenario, err)
		}
		cfg.JoinEpochs = joins
	}
	replicas := make(map[string][]int, len(tmpls))
	for _, t := range tmpls {
		for _, name := range t.racks {
			replicas[t.name] = append(replicas[t.name], index[name])
		}
	}
	for i, spec := range st.Chaos {
		ev := spec.Event
		racks, err := resolveRacks(spec.Racks, index, replicas)
		if err != nil {
			return cfg, fmt.Errorf("%w: chaos event %d (%s): %v", ErrBadScenario, i, ev.Kind, err)
		}
		ev.Racks = racks
		cfg.Events = append(cfg.Events, ev)
	}
	return cfg, nil
}

// resolveRacks maps target names (template names or exact rack names)
// to sorted unique rack indices; nil in, nil out (the whole fleet).
func resolveRacks(targets []string, index map[string]int, replicas map[string][]int) ([]int, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	var out []int
	for _, t := range targets {
		if idxs, ok := replicas[t]; ok {
			out = append(out, idxs...)
			continue
		}
		i, ok := index[t]
		if !ok {
			return nil, fmt.Errorf("no rack or template named %q", t)
		}
		out = append(out, i)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// BuildStorm resolves a stress scenario into a runnable storm
// configuration for chaos.Run.
func (sc *Scenario) BuildStorm() (chaos.StormConfig, error) {
	if sc.Stress == nil {
		return chaos.StormConfig{}, fmt.Errorf("%w: not a stress scenario; use Build or BuildFleet", ErrBadScenario)
	}
	st := sc.Stress
	tmpls, index, err := sc.expandFleet()
	if err != nil {
		return chaos.StormConfig{}, err
	}
	fleet, err := sc.buildFleet(tmpls)
	if err != nil {
		return chaos.StormConfig{}, err
	}
	if st.Breaker != nil {
		fleet.Breaker = *st.Breaker
	}
	ccfg, err := st.chaosConfig(sc, tmpls, index)
	if err != nil {
		return chaos.StormConfig{}, err
	}
	return chaos.StormConfig{
		Name:          sc.Name,
		Fleet:         fleet,
		Chaos:         ccfg,
		SLOSupplyFrac: st.SLOSupplyFrac,
		SnapshotEvery: st.SnapshotEvery,
	}, nil
}

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
// zero-sum template weights and same-kind chaos events whose nominal
// windows overlap on intersecting targets, so a storm schedule is
// unambiguous before anything runs.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"greenhetero/internal/breaker"
	"greenhetero/internal/chaos"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
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

// ChaosEventSpec is one scheduled chaos event. Only the fields its
// kind documents in internal/chaos are read.
type ChaosEventSpec struct {
	Kind     string `json:"kind"`
	AtEpoch  int    `json:"atEpoch"`
	Duration int    `json:"duration,omitempty"`
	// Racks names targets: a template name covers all its replicas, any
	// other entry must match a generated rack exactly. Empty means the
	// whole fleet for surge/partition kinds.
	Racks           []string `json:"racks,omitempty"`
	Zone            int      `json:"zone,omitempty"`
	Fanout          int      `json:"fanout,omitempty"`
	Depth           int      `json:"depth,omitempty"`
	RecoveryEpochs  int      `json:"recoveryEpochs,omitempty"`
	JitterFrac      float64  `json:"jitterFrac,omitempty"`
	DepthFrac       float64  `json:"depthFrac,omitempty"`
	WidthRacks      int      `json:"widthRacks,omitempty"`
	PriceScale      float64  `json:"priceScale,omitempty"`
	GridBudgetScale float64  `json:"gridBudgetScale,omitempty"`
	FadeFrac        float64  `json:"fadeFrac,omitempty"`
	IntensityScale  float64  `json:"intensityScale,omitempty"`
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

// stressKinds are the accepted chaos event kinds.
var stressKinds = map[string]bool{
	chaos.KindRackCrash:      true,
	chaos.KindZoneOutage:     true,
	chaos.KindWeatherFront:   true,
	chaos.KindPriceSpike:     true,
	chaos.KindBatteryFade:    true,
	chaos.KindWorkloadSurge:  true,
	chaos.KindAgentPartition: true,
	chaos.KindDaemonCrash:    true,
}

func badFrac(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }

// validate checks the stress block against its scenario. The fleet
// block has already been validated.
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
	names, tmpls, err := st.rackNames(sc)
	if err != nil {
		return err
	}
	if st.WALRack != "" {
		if _, err := resolveOneRack(st.WALRack, names); err != nil {
			return fmt.Errorf("%w: stress walRack: %v", ErrBadScenario, err)
		}
	}
	zones := st.Zones
	if zones == 0 {
		zones = 4
	}
	for i, ev := range st.Chaos {
		if err := st.checkEvent(i, ev, sc, zones, names, tmpls); err != nil {
			return err
		}
	}
	return st.checkOverlaps(sc, names, tmpls)
}

func (g *FleetGenSpec) validate(sc *Scenario) error {
	if g.Racks < 1 {
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
	if s := g.Startup; s != nil {
		if s.RampEpochs < 0 || s.RampEpochs >= sc.Epochs {
			return fmt.Errorf("%w: startup ramp %d epochs of %d", ErrBadScenario, s.RampEpochs, sc.Epochs)
		}
		if badFrac(s.JitterFrac) || s.JitterFrac < 0 || s.JitterFrac >= 1 {
			return fmt.Errorf("%w: startup jitterFrac %v outside [0,1)", ErrBadScenario, s.JitterFrac)
		}
		switch s.Pattern {
		case chaos.StartupInstant, chaos.StartupLinear, chaos.StartupExponential:
		case chaos.StartupWave:
			if s.Waves < 1 {
				return fmt.Errorf("%w: startup waves %d", ErrBadScenario, s.Waves)
			}
		default:
			return fmt.Errorf("%w: unknown startup pattern %q", ErrBadScenario, s.Pattern)
		}
	}
	return nil
}

// checkEvent validates one chaos event's parameters and targets.
func (st *StressSpec) checkEvent(i int, ev ChaosEventSpec, sc *Scenario, zones int, names []string, tmpls map[string][]int) error {
	bad := func(f string, args ...any) error {
		return fmt.Errorf("%w: chaos event %d (%s): %s", ErrBadScenario, i, ev.Kind, fmt.Sprintf(f, args...))
	}
	if !stressKinds[ev.Kind] {
		return fmt.Errorf("%w: chaos event %d: unknown kind %q", ErrBadScenario, i, ev.Kind)
	}
	if ev.AtEpoch < 0 || ev.AtEpoch >= sc.Epochs {
		return bad("atEpoch %d outside [0,%d)", ev.AtEpoch, sc.Epochs)
	}
	if _, err := resolveRacks(ev.Racks, names, tmpls); err != nil {
		return bad("%v", err)
	}
	windowed := ev.Kind != chaos.KindRackCrash && ev.Kind != chaos.KindBatteryFade
	if windowed && ev.Duration < 1 {
		return bad("duration %d (windowed events need at least one epoch)", ev.Duration)
	}
	if badFrac(ev.JitterFrac) || ev.JitterFrac < 0 || ev.JitterFrac >= 1 {
		return bad("jitterFrac %v outside [0,1)", ev.JitterFrac)
	}
	switch ev.Kind {
	case chaos.KindRackCrash:
		if len(ev.Racks) == 0 {
			return bad("no seed racks")
		}
		if ev.RecoveryEpochs < 1 {
			return bad("recoveryEpochs %d", ev.RecoveryEpochs)
		}
		if ev.Fanout < 0 || ev.Depth < 0 {
			return bad("fanout %d depth %d", ev.Fanout, ev.Depth)
		}
	case chaos.KindZoneOutage:
		if ev.Zone < 0 || ev.Zone >= zones {
			return bad("zone %d of %d", ev.Zone, zones)
		}
	case chaos.KindWeatherFront:
		if ev.WidthRacks < 1 {
			return bad("widthRacks %d", ev.WidthRacks)
		}
		if badFrac(ev.DepthFrac) || ev.DepthFrac <= 0 || ev.DepthFrac > 1 {
			return bad("depthFrac %v outside (0,1]", ev.DepthFrac)
		}
	case chaos.KindPriceSpike:
		if badFrac(ev.PriceScale) || ev.PriceScale < 0 {
			return bad("priceScale %v", ev.PriceScale)
		}
		if badFrac(ev.GridBudgetScale) || ev.GridBudgetScale < 0 || ev.GridBudgetScale > 1 {
			return bad("gridBudgetScale %v outside [0,1]", ev.GridBudgetScale)
		}
	case chaos.KindBatteryFade:
		if badFrac(ev.FadeFrac) || ev.FadeFrac <= 0 || ev.FadeFrac >= 1 {
			return bad("fadeFrac %v outside (0,1)", ev.FadeFrac)
		}
	case chaos.KindWorkloadSurge:
		if badFrac(ev.IntensityScale) || ev.IntensityScale <= 0 {
			return bad("intensityScale %v", ev.IntensityScale)
		}
	case chaos.KindDaemonCrash:
		if st.WALRack == "" {
			return bad("requires stress.walRack")
		}
	}
	return nil
}

// nominalWindow is an event's epoch span for overlap checking: the
// scheduled window, or for cascades the seed-to-nominal-recovery span.
func nominalWindow(ev ChaosEventSpec) (int, int) {
	switch ev.Kind {
	case chaos.KindRackCrash:
		return ev.AtEpoch, ev.AtEpoch + ev.Depth + ev.RecoveryEpochs
	case chaos.KindBatteryFade:
		return ev.AtEpoch, ev.AtEpoch + 1
	case chaos.KindDaemonCrash:
		return ev.AtEpoch, ev.AtEpoch + 1 + ev.Duration
	default:
		return ev.AtEpoch, ev.AtEpoch + ev.Duration
	}
}

// checkOverlaps rejects same-kind events whose nominal windows overlap
// on intersecting targets — an ambiguous schedule (which event owns the
// rack's downtime?) that would also make reports unattributable.
func (st *StressSpec) checkOverlaps(sc *Scenario, names []string, tmpls map[string][]int) error {
	for i := 0; i < len(st.Chaos); i++ {
		for j := i + 1; j < len(st.Chaos); j++ {
			a, b := st.Chaos[i], st.Chaos[j]
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
			if a.Kind == chaos.KindRackCrash || a.Kind == chaos.KindWorkloadSurge || a.Kind == chaos.KindAgentPartition {
				ra, _ := resolveRacks(a.Racks, names, tmpls)
				rb, _ := resolveRacks(b.Racks, names, tmpls)
				if !targetsIntersect(ra, rb, len(names)) {
					continue
				}
			}
			return fmt.Errorf("%w: chaos events %d and %d (%s) overlap on epochs [%d,%d)∩[%d,%d) with intersecting targets",
				ErrBadScenario, i, j, a.Kind, aFrom, aTo, bFrom, bTo)
		}
	}
	return nil
}

// targetsIntersect reports whether two resolved target sets share a
// rack; nil means the whole fleet.
func targetsIntersect(a, b []int, n int) bool {
	if n == 0 {
		return false
	}
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

// rackNames expands the stressed fleet's rack names in fleet order and
// maps each template name to its replica indices. Shared by validation
// and BuildStorm so event targets resolve identically in both.
func (st *StressSpec) rackNames(sc *Scenario) ([]string, map[string][]int, error) {
	tmpls := make(map[string][]int)
	var names []string
	if g := st.FleetGen; g != nil {
		weights := make([]float64, len(g.Templates))
		for i, t := range g.Templates {
			weights[i] = t.Weight
		}
		counts := apportion(g.Racks, weights)
		for ti, t := range g.Templates {
			for j := 0; j < counts[ti]; j++ {
				tmpls[t.Name] = append(tmpls[t.Name], len(names))
				names = append(names, fmt.Sprintf("%s-%04d", t.Name, j))
			}
		}
		return names, tmpls, nil
	}
	for _, tmpl := range sc.Fleet.Racks {
		count := tmpl.Count
		if count == 0 {
			count = 1
		}
		for j := 0; j < count; j++ {
			name := tmpl.Name
			if count > 1 {
				name = fmt.Sprintf("%s-%d", tmpl.Name, j)
			}
			tmpls[tmpl.Name] = append(tmpls[tmpl.Name], len(names))
			names = append(names, name)
		}
	}
	return names, tmpls, nil
}

// resolveRacks maps target names (template names or exact rack names)
// to sorted unique rack indices; nil in, nil out (the whole fleet).
func resolveRacks(targets []string, names []string, tmpls map[string][]int) ([]int, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	set := make(map[int]bool)
	for _, t := range targets {
		if idxs, ok := tmpls[t]; ok {
			for _, i := range idxs {
				set[i] = true
			}
			continue
		}
		i, err := resolveOneRack(t, names)
		if err != nil {
			return nil, err
		}
		set[i] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

func resolveOneRack(target string, names []string) (int, error) {
	for i, n := range names {
		if n == target {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no rack or template named %q", target)
}

// BuildStorm resolves a stress scenario into a runnable storm
// configuration for chaos.Run.
func (sc *Scenario) BuildStorm() (chaos.StormConfig, error) {
	if sc.Stress == nil {
		return chaos.StormConfig{}, fmt.Errorf("%w: not a stress scenario; use Build or BuildFleet", ErrBadScenario)
	}
	st := sc.Stress

	var (
		fleet cluster.Config
		err   error
	)
	if g := st.FleetGen; g != nil {
		weights := make([]float64, len(g.Templates))
		for i, t := range g.Templates {
			weights[i] = t.Weight
		}
		counts := apportion(g.Racks, weights)
		var racks []cluster.RackConfig
		for ti, t := range g.Templates {
			p, err := policy.ByName(t.Policy)
			if err != nil {
				return chaos.StormConfig{}, fmt.Errorf("scenario: template %q: %w", t.Name, err)
			}
			for j := 0; j < counts[ti]; j++ {
				name := fmt.Sprintf("%s-%04d", t.Name, j)
				rack, groupWs, err := buildRack(name, t.Groups)
				if err != nil {
					return chaos.StormConfig{}, fmt.Errorf("scenario: template %q: %w", t.Name, err)
				}
				racks = append(racks, cluster.RackConfig{
					Rack:           rack,
					GroupWorkloads: groupWs,
					Policy:         p,
				})
			}
		}
		fleet, err = sc.siteConfig(racks)
	} else {
		fleet, err = sc.BuildFleet()
	}
	if err != nil {
		return chaos.StormConfig{}, err
	}
	if st.Breaker != nil {
		fleet.Breaker = *st.Breaker
	}

	names, tmpls, err := st.rackNames(sc)
	if err != nil {
		return chaos.StormConfig{}, err
	}
	ccfg := chaos.Config{
		Racks:   len(names),
		Names:   names,
		Zones:   st.Zones,
		Epochs:  sc.Epochs,
		Seed:    sc.Seed,
		WALRack: -1,
	}
	if ccfg.Zones == 0 {
		ccfg.Zones = 4
	}
	if st.WALRack != "" {
		i, err := resolveOneRack(st.WALRack, names)
		if err != nil {
			return chaos.StormConfig{}, fmt.Errorf("scenario: stress walRack: %w", err)
		}
		ccfg.WALRack = i
	}
	if g := st.FleetGen; g != nil && g.Startup != nil {
		s := g.Startup
		joins, err := chaos.JoinEpochs(len(names), s.Pattern, s.RampEpochs, s.Waves, s.JitterFrac, sc.Seed)
		if err != nil {
			return chaos.StormConfig{}, fmt.Errorf("scenario: startup: %w", err)
		}
		ccfg.JoinEpochs = joins
	}
	for _, ev := range st.Chaos {
		racks, err := resolveRacks(ev.Racks, names, tmpls)
		if err != nil {
			return chaos.StormConfig{}, fmt.Errorf("scenario: chaos event %s: %w", ev.Kind, err)
		}
		ccfg.Events = append(ccfg.Events, chaos.Event{
			Kind:            ev.Kind,
			At:              ev.AtEpoch,
			Duration:        ev.Duration,
			Racks:           racks,
			Zone:            ev.Zone,
			Fanout:          ev.Fanout,
			Depth:           ev.Depth,
			RecoveryEpochs:  ev.RecoveryEpochs,
			JitterFrac:      ev.JitterFrac,
			DepthFrac:       ev.DepthFrac,
			WidthRacks:      ev.WidthRacks,
			PriceScale:      ev.PriceScale,
			GridBudgetScale: ev.GridBudgetScale,
			FadeFrac:        ev.FadeFrac,
			IntensityScale:  ev.IntensityScale,
		})
	}
	return chaos.StormConfig{
		Name:          sc.Name,
		Fleet:         fleet,
		Chaos:         ccfg,
		SLOSupplyFrac: st.SLOSupplyFrac,
		SnapshotEvery: st.SnapshotEvery,
	}, nil
}

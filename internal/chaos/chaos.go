// Package chaos turns a fleet run into a seeded failure storm: a
// schedule of domain events — cascading rack crashes, zone outages,
// cloud-bank weather fronts sweeping PV across the rack axis, grid
// price spikes, battery capacity fade, flash-crowd workload surges,
// agent partitions, and mid-storm daemon crashes at WAL crashpoints —
// expanded at build time from per-event seeded RNG streams into plain
// epoch windows, then replayed through cluster.Run's Disturber hook.
// Everything downstream of the seed is deterministic, so a storm's
// stress report is byte-identical across runs and parallelism levels.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"greenhetero/internal/cluster"
	"greenhetero/internal/runner"
)

// Event kinds. Windowed kinds occupy [At, At+Duration); instantaneous
// kinds fire at At.
const (
	// KindRackCrash crashes the seed racks at At, then cascades: each
	// victim fans out to Fanout random racks one epoch later, Depth
	// levels deep. Every victim stays down for RecoveryEpochs, jittered
	// by JitterFrac.
	KindRackCrash = "rack_crash"
	// KindZoneOutage takes every rack in Zone down for the window.
	KindZoneOutage = "zone_outage"
	// KindWeatherFront sweeps a cloud bank of WidthRacks across the
	// rack axis over the window, derating covered racks' delivered PV
	// by DepthFrac.
	KindWeatherFront = "weather_front"
	// KindPriceSpike multiplies the grid price by PriceScale for the
	// window; the site answers with demand response, scaling its grid
	// budget by GridBudgetScale.
	KindPriceSpike = "price_spike"
	// KindBatteryFade permanently removes FadeFrac of the site bank's
	// remaining capacity at At (aging, cell failure).
	KindBatteryFade = "battery_fade"
	// KindWorkloadSurge multiplies the target racks' demand intensity
	// by IntensityScale for the window (flash crowd). Empty Racks
	// means the whole fleet.
	KindWorkloadSurge = "workload_surge"
	// KindAgentPartition severs the target racks' agent links for the
	// window: the coordinator holds their last grants instead of
	// re-bidding them. Empty Racks means the whole fleet.
	KindAgentPartition = "agent_partition"
	// KindDaemonCrash tears the checkpointed rack's daemon down at a
	// seeded WAL crashpoint inside the commit of epoch At, keeps it
	// down for Duration epochs, and forces recovery from durable state.
	KindDaemonCrash = "daemon_crash"
)

// Event is one scheduled chaos event, with rack targets already
// resolved to fleet indices. Only the fields its Kind documents are
// read. The JSON names are a scenario file's; there targets are rack
// and template names, which the scenario layer resolves into Racks.
type Event struct {
	Kind     string `json:"kind"`
	At       int    `json:"atEpoch"`
	Duration int    `json:"duration,omitempty"`
	// Racks targets specific racks (crash seeds; surge / partition
	// scope, where empty means the whole fleet).
	Racks []int `json:"-"`
	// Zone targets a zone (rack i belongs to zone i mod Zones).
	Zone int `json:"zone,omitempty"`
	// Fanout and Depth shape a crash cascade.
	Fanout int `json:"fanout,omitempty"`
	Depth  int `json:"depth,omitempty"`
	// RecoveryEpochs is a crash victim's down time, jittered by
	// JitterFrac.
	RecoveryEpochs int     `json:"recoveryEpochs,omitempty"`
	JitterFrac     float64 `json:"jitterFrac,omitempty"`
	// DepthFrac is a weather front's PV derate; WidthRacks its size.
	//
	// ghlint:units frac
	DepthFrac  float64 `json:"depthFrac,omitempty"`
	WidthRacks int     `json:"widthRacks,omitempty"`
	// PriceScale and GridBudgetScale shape a price spike.
	PriceScale      float64 `json:"priceScale,omitempty"`
	GridBudgetScale float64 `json:"gridBudgetScale,omitempty"`
	// FadeFrac is the capacity fraction a battery_fade removes.
	//
	// ghlint:units frac
	FadeFrac float64 `json:"fadeFrac,omitempty"`
	// IntensityScale is a workload surge's demand multiplier.
	IntensityScale float64 `json:"intensityScale,omitempty"`
}

// Config describes a storm over a fleet.
type Config struct {
	// Racks is the fleet size. Names, when non-nil, must hold one name
	// per rack; the engine checks the count but reads no name. Zone of
	// rack i is i mod Zones (default 1 zone).
	Racks int
	Names []string
	Zones int
	// JoinEpochs, when non-nil, is each rack's startup epoch (see
	// JoinEpochs); earlier epochs are Absent.
	JoinEpochs []int
	// Epochs is the run length; events are clipped to it.
	Epochs int
	// Seed drives every random choice (cascade victims, jitter, WAL
	// crashpoints) through per-event derived streams.
	Seed int64
	// Events is the storm schedule.
	Events []Event
	// WALRack is the rack whose daemon is checkpointed through the WAL
	// layer (-1 = none). Required for daemon_crash events.
	WALRack int
}

// epoch window over one rack or zone.
type window struct {
	target   int
	from, to int
}

type front struct {
	at, end, width int
	depth          float64
}

type spike struct {
	from, to    int
	price, grid float64
}

type fadePoint struct {
	at   int
	frac float64
}

type surge struct {
	from, to int
	scale    float64
	racks    []int // nil = all
}

type partWindow struct {
	from, to int
	racks    []int // nil = all
}

// Engine is a built storm: every event expanded into plain epoch
// windows. It implements cluster.Disturber; Disturb is called serially
// once per epoch and is pure replay — all randomness was spent at
// build time.
type Engine struct {
	cfg     Config
	crashes []window
	zones   []window
	fronts  []front
	spikes  []spike
	fades   []fadePoint
	surges  []surge
	parts   []partWindow
	// daemonArm maps an epoch to the WAL crashpoint offset armed before
	// that epoch's commit.
	daemonArm map[int]int
}

// Validate checks the storm config and every event against the rules
// its kind documents. It is the one rule table for a schedule: NewEngine
// calls it before expanding, and scenario files answer to it once their
// rack names are resolved to indices.
func (cfg Config) Validate() error {
	if cfg.Racks < 1 {
		return fmt.Errorf("chaos: %d racks", cfg.Racks)
	}
	if cfg.Epochs < 1 {
		return fmt.Errorf("chaos: %d epochs", cfg.Epochs)
	}
	if cfg.Names != nil && len(cfg.Names) != cfg.Racks {
		return fmt.Errorf("chaos: %d names for %d racks", len(cfg.Names), cfg.Racks)
	}
	if cfg.JoinEpochs != nil && len(cfg.JoinEpochs) != cfg.Racks {
		return fmt.Errorf("chaos: %d join epochs for %d racks", len(cfg.JoinEpochs), cfg.Racks)
	}
	if cfg.WALRack >= cfg.Racks {
		return fmt.Errorf("chaos: WAL rack %d of %d", cfg.WALRack, cfg.Racks)
	}
	for idx, ev := range cfg.Events {
		if err := cfg.checkEvent(ev); err != nil {
			return fmt.Errorf("chaos: event %d (%s): %w", idx, ev.Kind, err)
		}
	}
	return nil
}

// checkEvent applies the rules of one event's kind.
func (cfg Config) checkEvent(ev Event) error {
	if ev.At < 0 || ev.At >= cfg.Epochs {
		return fmt.Errorf("at epoch %d of %d", ev.At, cfg.Epochs)
	}
	for _, r := range ev.Racks {
		if r < 0 || r >= cfg.Racks {
			return fmt.Errorf("targets rack %d of %d", r, cfg.Racks)
		}
	}
	if !(ev.JitterFrac >= 0 && ev.JitterFrac < 1) {
		return fmt.Errorf("jitter %v outside [0,1)", ev.JitterFrac)
	}
	windowed := true
	switch ev.Kind {
	case KindRackCrash:
		windowed = false
		switch {
		case len(ev.Racks) == 0:
			return errors.New("no seed racks")
		case ev.RecoveryEpochs < 1:
			return fmt.Errorf("recovery %d epochs", ev.RecoveryEpochs)
		case ev.Fanout < 0 || ev.Depth < 0:
			return fmt.Errorf("fanout %d depth %d", ev.Fanout, ev.Depth)
		}
	case KindZoneOutage:
		if zones := max(cfg.Zones, 1); ev.Zone < 0 || ev.Zone >= zones {
			return fmt.Errorf("zone %d of %d", ev.Zone, zones)
		}
	case KindWeatherFront:
		if ev.WidthRacks < 1 {
			return fmt.Errorf("width %d racks", ev.WidthRacks)
		}
		if !(ev.DepthFrac > 0 && ev.DepthFrac <= 1) {
			return fmt.Errorf("depth %v outside (0,1]", ev.DepthFrac)
		}
	case KindPriceSpike:
		// Zero scales mean 1 (no price change, no demand response).
		if !(ev.PriceScale >= 0) || math.IsInf(ev.PriceScale, 1) {
			return fmt.Errorf("price scale %v", ev.PriceScale)
		}
		if !(ev.GridBudgetScale >= 0 && ev.GridBudgetScale <= 1) {
			return fmt.Errorf("grid budget scale %v outside [0,1]", ev.GridBudgetScale)
		}
	case KindBatteryFade:
		windowed = false
		if !(ev.FadeFrac > 0 && ev.FadeFrac < 1) {
			return fmt.Errorf("fade %v outside (0,1)", ev.FadeFrac)
		}
	case KindWorkloadSurge:
		if !(ev.IntensityScale > 0) || math.IsInf(ev.IntensityScale, 1) {
			return fmt.Errorf("intensity scale %v", ev.IntensityScale)
		}
	case KindAgentPartition:
	case KindDaemonCrash:
		if cfg.WALRack < 0 {
			return errors.New("no WAL rack configured")
		}
	default:
		return errors.New("unknown kind")
	}
	if windowed && ev.Duration < 1 {
		return fmt.Errorf("duration %d (windowed events need at least one epoch)", ev.Duration)
	}
	return nil
}

// NewEngine validates and expands the storm schedule. Each event draws
// from its own derived RNG stream, so reordering or editing one event
// never perturbs another's expansion.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Zones < 1 {
		cfg.Zones = 1
	}
	g := &Engine{cfg: cfg, daemonArm: make(map[int]int)}
	for idx, ev := range cfg.Events {
		rng := rand.New(rand.NewSource(runner.DeriveSeed(cfg.Seed, fmt.Sprintf("chaos/event/%d", idx))))
		g.expand(ev, rng)
	}
	// Replay order must not depend on schedule order: sort each table.
	sort.Slice(g.crashes, func(i, j int) bool {
		a, b := g.crashes[i], g.crashes[j]
		if a.from != b.from {
			return a.from < b.from
		}
		return a.target < b.target
	})
	sort.Slice(g.fades, func(i, j int) bool { return g.fades[i].at < g.fades[j].at })
	return g, nil
}

// expand turns one validated event into replay windows using its
// private rng.
func (g *Engine) expand(ev Event, rng *rand.Rand) {
	switch ev.Kind {
	case KindRackCrash:
		down := make(map[int]bool)
		level := ev.Racks
		for l := 0; l <= ev.Depth && len(level) > 0; l++ {
			at := ev.At + l
			if at >= g.cfg.Epochs {
				break
			}
			var next []int
			for _, r := range level {
				if down[r] {
					continue
				}
				down[r] = true
				dur := jitterEpochs(rng, ev.RecoveryEpochs, ev.JitterFrac)
				g.crashes = append(g.crashes, window{target: r, from: at, to: at + dur})
				if l == ev.Depth {
					continue
				}
				// Fan out to random healthy racks; a saturated fleet
				// simply stops cascading (bounded retries).
				for f := 0; f < ev.Fanout; f++ {
					for try := 0; try < 8; try++ {
						v := rng.Intn(g.cfg.Racks)
						if !down[v] {
							next = append(next, v)
							break
						}
					}
				}
			}
			level = next
		}
	case KindZoneOutage:
		g.zones = append(g.zones, window{target: ev.Zone, from: ev.At, to: ev.At + ev.Duration})
	case KindWeatherFront:
		g.fronts = append(g.fronts, front{at: ev.At, end: ev.At + ev.Duration, width: ev.WidthRacks, depth: ev.DepthFrac})
	case KindPriceSpike:
		price, grid := ev.PriceScale, ev.GridBudgetScale
		if price == 0 {
			price = 1
		}
		if grid == 0 {
			grid = 1
		}
		g.spikes = append(g.spikes, spike{from: ev.At, to: ev.At + ev.Duration, price: price, grid: grid})
	case KindBatteryFade:
		g.fades = append(g.fades, fadePoint{at: ev.At, frac: ev.FadeFrac})
	case KindWorkloadSurge:
		g.surges = append(g.surges, surge{from: ev.At, to: ev.At + ev.Duration, scale: ev.IntensityScale, racks: ev.Racks})
	case KindAgentPartition:
		g.parts = append(g.parts, partWindow{from: ev.At, to: ev.At + ev.Duration, racks: ev.Racks})
	case KindDaemonCrash:
		// The crashpoint lands 1 or 2 filesystem ops into the commit of
		// epoch At — inside the record write or its sync — so the epoch
		// is stepped but never durable.
		g.daemonArm[ev.At] = 1 + rng.Intn(2)
		g.crashes = append(g.crashes, window{target: g.cfg.WALRack, from: ev.At + 1, to: ev.At + 1 + ev.Duration})
	}
}

// jitterEpochs jitters a base duration by ±frac, floored at one epoch.
func jitterEpochs(rng *rand.Rand, base int, frac float64) int {
	d := int(math.Round(float64(base) * (1 + frac*(2*rng.Float64()-1))))
	if d < 1 {
		d = 1
	}
	return d
}

// Disturb implements cluster.Disturber: replay the expanded storm for
// one epoch into the effect vector.
func (g *Engine) Disturb(epoch int, d *cluster.Disturbance) {
	if g.cfg.JoinEpochs != nil {
		for i, j := range g.cfg.JoinEpochs {
			if epoch < j {
				d.Absent[i] = true
			}
		}
	}
	for _, w := range g.crashes {
		if epoch >= w.from && epoch < w.to {
			d.Down[w.target] = true
		}
	}
	for _, w := range g.zones {
		if epoch >= w.from && epoch < w.to {
			for i := w.target; i < g.cfg.Racks; i += g.cfg.Zones {
				d.Down[i] = true
			}
		}
	}
	for _, f := range g.fronts {
		if epoch < f.at || epoch >= f.end {
			continue
		}
		// The cloud bank's center sweeps from just off one edge of the
		// rack axis to just off the other over the window.
		p := 0.0
		if span := f.end - f.at - 1; span > 0 {
			p = float64(epoch-f.at) / float64(span)
		}
		c := -float64(f.width)/2 + p*float64(g.cfg.Racks+f.width)
		lo := int(math.Ceil(c - float64(f.width)/2))
		hi := int(math.Floor(c + float64(f.width)/2))
		if lo < 0 {
			lo = 0
		}
		if hi >= g.cfg.Racks {
			hi = g.cfg.Racks - 1
		}
		for i := lo; i <= hi; i++ {
			d.PVScaleFrac[i] *= 1 - f.depth
		}
	}
	for _, s := range g.spikes {
		if epoch >= s.from && epoch < s.to {
			d.GridBudgetScaleFrac *= s.grid
		}
	}
	capFrac := 1.0
	for _, f := range g.fades {
		if f.at <= epoch {
			capFrac *= 1 - f.frac
		}
	}
	d.BatteryCapacityFrac = capFrac
	for _, s := range g.surges {
		if epoch < s.from || epoch >= s.to {
			continue
		}
		if s.racks == nil {
			for i := range d.IntensityScale {
				d.IntensityScale[i] *= s.scale
			}
		} else {
			for _, i := range s.racks {
				d.IntensityScale[i] *= s.scale
			}
		}
	}
	for _, p := range g.parts {
		if epoch < p.from || epoch >= p.to {
			continue
		}
		if p.racks == nil {
			for i := range d.Partitioned {
				d.Partitioned[i] = true
			}
		} else {
			for _, i := range p.racks {
				d.Partitioned[i] = true
			}
		}
	}
}

// PriceScale is the grid price multiplier in effect at epoch (product
// of active price spikes; 1 outside them). The stress report prices
// grid energy with it.
func (g *Engine) PriceScale(epoch int) float64 {
	scale := 1.0
	for _, s := range g.spikes {
		if epoch >= s.from && epoch < s.to {
			scale *= s.price
		}
	}
	return scale
}

// DaemonArm maps epochs to the WAL crashpoint offsets armed before
// those epochs' commits (empty without daemon_crash events).
func (g *Engine) DaemonArm() map[int]int { return g.daemonArm }

// Package server models the heterogeneous rack servers of the paper's
// evaluation platform (Table II): six configurations spanning three Xeon
// generations, two desktop Cores, and an Nvidia GPU, each described by
// its peak/idle power envelope and a ladder of DVFS power states.
//
// Servers here are power/performance envelopes, not instruction-level
// models: the controller treats a server as a box that converts an
// allocated power budget into throughput (see internal/workload for the
// response surfaces), which is exactly the abstraction the paper's
// scheduler operates on.
package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Class broadly distinguishes processing hardware.
type Class int

const (
	// ClassCPU marks general-purpose CPU servers.
	ClassCPU Class = iota + 1
	// ClassGPU marks GPU accelerator servers.
	ClassGPU
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassGPU:
		return "gpu"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec describes one server configuration (a Table II row).
type Spec struct {
	// ID is a stable short identifier, e.g. "e5-2620".
	ID string
	// Model is the marketing name, e.g. "Xeon E5-2620".
	Model string
	// Class distinguishes CPU from GPU servers.
	Class Class
	// BaseFreqMHz is the nominal frequency (Table II "Frequency").
	BaseFreqMHz float64
	// Sockets and Cores follow Table II.
	Sockets int
	Cores   int
	// PeakW and IdleW bound the power envelope (Table II).
	PeakW float64
	IdleW float64
	// DVFSLevels is the number of frequency steps exposed; at least 2.
	DVFSLevels int
	// PerfFactor is a microarchitectural efficiency multiplier on the
	// capability model (IPC, memory system, uncore): cores and
	// frequency alone do not rank real servers. Calibrated so the
	// Table IV pairs behave as the paper reports — Comb2/Comb4 nearly
	// homogeneous in throughput-per-watt, Comb1/Comb3 strongly
	// heterogeneous. Must be positive.
	PerfFactor float64
}

// ErrBadSpec is returned when a spec fails validation.
var ErrBadSpec = errors.New("server: bad spec")

// Validate checks internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.ID == "":
		return fmt.Errorf("%w: empty ID", ErrBadSpec)
	case s.Class != ClassCPU && s.Class != ClassGPU:
		return fmt.Errorf("%w %s: unknown class %d", ErrBadSpec, s.ID, int(s.Class))
	case s.BaseFreqMHz <= 0:
		return fmt.Errorf("%w %s: frequency %v", ErrBadSpec, s.ID, s.BaseFreqMHz)
	case s.Sockets < 1 || s.Cores < 1:
		return fmt.Errorf("%w %s: sockets %d cores %d", ErrBadSpec, s.ID, s.Sockets, s.Cores)
	case s.IdleW <= 0 || s.PeakW <= s.IdleW:
		return fmt.Errorf("%w %s: power envelope idle %v peak %v", ErrBadSpec, s.ID, s.IdleW, s.PeakW)
	case s.DVFSLevels < 2:
		return fmt.Errorf("%w %s: DVFS levels %d", ErrBadSpec, s.ID, s.DVFSLevels)
	case s.PerfFactor <= 0:
		return fmt.Errorf("%w %s: perf factor %v", ErrBadSpec, s.ID, s.PerfFactor)
	}
	return nil
}

// DynamicRangeW is the controllable power span (peak − idle).
func (s Spec) DynamicRangeW() float64 { return s.PeakW - s.IdleW }

// PowerState is one entry of the ordered power-state set S_N of §IV-B.4:
// either a low-power (sleep) state or a DVFS frequency level.
type PowerState struct {
	// Name labels the state, e.g. "sleep", "freq-1600MHz".
	Name string
	// FreqMHz is 0 for sleep states.
	FreqMHz float64
	// Watts is the server draw while in this state at full load.
	Watts float64
}

// States returns the ordered power-state set S_N, lowest power first:
// a sleep state, then DVFSLevels frequency steps from the lowest usable
// frequency up to base frequency. Power at a frequency step follows the
// classic DVFS scaling P = idle + (peak − idle)·(f/fmax)^e with e ≈ 2.2
// (voltage scales with frequency, P ∝ f·V²). Each call builds a fresh
// ladder; a Rack shares the catalog's ladders (catalogStates) and
// builds one only for a spec outside the catalog.
func (s Spec) States() []PowerState {
	const sleepW = 4.0
	const dvfsExp = 2.2
	states := make([]PowerState, 0, s.DVFSLevels+1)
	states = append(states, PowerState{Name: "sleep", Watts: math.Min(sleepW, s.IdleW)})
	// Lowest usable frequency ≈ 40 % of base, evenly spaced steps to 100 %.
	const fMinFrac = 0.40
	for i := 0; i < s.DVFSLevels; i++ {
		frac := fMinFrac + (1-fMinFrac)*float64(i)/float64(s.DVFSLevels-1)
		f := s.BaseFreqMHz * frac
		w := s.IdleW + s.DynamicRangeW()*math.Pow(frac, dvfsExp)
		states = append(states, PowerState{
			// %.0f's text (for f < 2^63) without fmt's slow exact
			// decimal path.
			Name:    "freq-" + strconv.Itoa(int(math.RoundToEven(f))) + "MHz",
			FreqMHz: f,
			Watts:   w,
		})
	}
	return states
}

// Catalog IDs for the Table II servers.
const (
	XeonE52620  = "e5-2620"
	XeonE52650  = "e5-2650"
	XeonE52603  = "e5-2603"
	CoreI78700K = "i7-8700k"
	CoreI54460  = "i5-4460"
	TitanXp     = "titan-xp"
)

// catalog reproduces Table II.
var catalog = []Spec{
	{ID: XeonE52620, Model: "Xeon E5-2620", Class: ClassCPU, BaseFreqMHz: 2000, Sockets: 2, Cores: 12, PeakW: 178, IdleW: 88, DVFSLevels: 10, PerfFactor: 1.00},
	{ID: XeonE52650, Model: "Xeon E5-2650", Class: ClassCPU, BaseFreqMHz: 2000, Sockets: 1, Cores: 8, PeakW: 112, IdleW: 66, DVFSLevels: 10, PerfFactor: 1.45},
	{ID: XeonE52603, Model: "Xeon E5-2603", Class: ClassCPU, BaseFreqMHz: 1800, Sockets: 1, Cores: 4, PeakW: 79, IdleW: 58, DVFSLevels: 8, PerfFactor: 1.60},
	{ID: CoreI78700K, Model: "Core i7-8700K", Class: ClassCPU, BaseFreqMHz: 3700, Sockets: 1, Cores: 6, PeakW: 88, IdleW: 39, DVFSLevels: 12, PerfFactor: 0.55},
	{ID: CoreI54460, Model: "Core i5-4460", Class: ClassCPU, BaseFreqMHz: 3200, Sockets: 1, Cores: 4, PeakW: 96, IdleW: 47, DVFSLevels: 10, PerfFactor: 1.00},
	{ID: TitanXp, Model: "Nvidia Titan Xp", Class: ClassGPU, BaseFreqMHz: 1582, Sockets: 1, Cores: 3840, PeakW: 411, IdleW: 149, DVFSLevels: 16, PerfFactor: 1.00},
}

// catalogStates[i] is catalog[i].States(), built once at start-up and
// shared read-only by every rack whose group uses that exact spec.
var catalogStates = func() [][]PowerState {
	out := make([][]PowerState, len(catalog))
	for i, s := range catalog {
		out[i] = s.States()
	}
	return out
}()

// ladder returns s's DVFS ladder: the shared catalog ladder when s is a
// catalog entry, unmodified, and a fresh one otherwise.
func ladder(s Spec) []PowerState {
	for i := range catalog {
		if catalog[i] == s {
			return catalogStates[i]
		}
	}
	return s.States()
}

// Catalog returns a copy of the Table II server catalog.
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup finds a catalog spec by ID.
func Lookup(id string) (Spec, error) {
	for _, s := range catalog {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("server: unknown spec %q", id)
}

// Group is a homogeneous set of servers within a rack.
type Group struct {
	Spec  Spec
	Count int
}

// Rack is a PDU-level collection of up to three heterogeneous server
// groups (the paper assumes ≤3 configurations per rack, §IV-B.3).
type Rack struct {
	name   string
	groups []Group
	// states[i] is groups[i].Spec.States(), resolved once by NewRack
	// (shared with every rack of the same catalog spec, never written):
	// the SPC maps a power target to a state for every group every
	// epoch.
	states [][]PowerState
}

var (
	// ErrTooManyGroups enforces the paper's ≤3 configurations per rack.
	ErrTooManyGroups = errors.New("server: rack supports at most 3 server groups")
	// ErrEmptyRack is returned for racks with no servers.
	ErrEmptyRack = errors.New("server: rack has no servers")
)

// NewRack builds a rack from groups, validating each spec.
func NewRack(name string, groups ...Group) (*Rack, error) {
	if len(groups) == 0 {
		return nil, ErrEmptyRack
	}
	if len(groups) > 3 {
		return nil, fmt.Errorf("%w: got %d", ErrTooManyGroups, len(groups))
	}
	seen := make(map[string]bool, len(groups))
	gs := make([]Group, len(groups))
	for i, g := range groups {
		if err := g.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("rack %q group %d: %w", name, i, err)
		}
		if g.Count < 1 {
			return nil, fmt.Errorf("server: rack %q group %q: count %d", name, g.Spec.ID, g.Count)
		}
		if seen[g.Spec.ID] {
			return nil, fmt.Errorf("server: rack %q: duplicate spec %q", name, g.Spec.ID)
		}
		seen[g.Spec.ID] = true
		gs[i] = g
	}
	// Stable ordering by spec ID keeps PAR vectors deterministic.
	sort.Slice(gs, func(i, j int) bool { return gs[i].Spec.ID < gs[j].Spec.ID })
	states := make([][]PowerState, len(gs))
	for i := range gs {
		states[i] = ladder(gs[i].Spec)
	}
	return &Rack{name: name, groups: gs, states: states}, nil
}

// Name returns the rack's label.
func (r *Rack) Name() string { return r.name }

// Groups returns a copy of the rack's server groups.
func (r *Rack) Groups() []Group {
	out := make([]Group, len(r.groups))
	copy(out, r.groups)
	return out
}

// NumGroups reports how many heterogeneous groups the rack holds.
//
// ghlint:allocfree
func (r *Rack) NumGroups() int { return len(r.groups) }

// Group returns the i'th group in place, letting per-epoch paths read
// the rack without the defensive copy Groups makes. The rack is
// immutable after NewRack: callers must not write through the pointer.
//
// ghlint:allocfree
func (r *Rack) Group(i int) *Group { return &r.groups[i] }

// StateForPower implements the paper's linear mapping from a per-server
// power target in group i to a position in its S_N (§IV-B.4): targets at
// or above peak select the highest state, targets below the lowest
// running state select sleep, and anything between is linearly scaled to
// a state index.
//
// ghlint:allocfree
func (r *Rack) StateForPower(i int, targetW float64) PowerState {
	states := r.states[i]
	lo := states[1].Watts // lowest running state
	hi := states[len(states)-1].Watts
	switch {
	case targetW < lo:
		return states[0]
	case targetW >= hi:
		return states[len(states)-1]
	}
	// Linear scale into the running states [1, len-1].
	frac := (targetW - lo) / (hi - lo)
	idx := 1 + int(math.Floor(frac*float64(len(states)-2)))
	if idx > len(states)-1 {
		idx = len(states) - 1
	}
	return states[idx]
}

// Servers reports the total server count.
func (r *Rack) Servers() int {
	var n int
	for _, g := range r.groups {
		n += g.Count
	}
	return n
}

// PeakW is the aggregate peak power demand of the rack.
func (r *Rack) PeakW() float64 {
	var w float64
	for _, g := range r.groups {
		w += g.Spec.PeakW * float64(g.Count)
	}
	return w
}

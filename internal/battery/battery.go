// Package battery models the rack-level distributed energy storage used
// by GreenHetero (paper §II-A, §IV-B.1, §V-A.2): a lead-acid bank
// (default 10 × 12 V × 100 Ah = 12 kWh) with a 40 % depth-of-discharge
// floor, 80 % round-trip efficiency, and charge/discharge power caps.
//
// The model is energy-accounting only (no electrochemistry): each epoch
// the simulator asks to charge or discharge some power for the epoch
// duration, and the bank applies efficiency, DoD, and rate limits. Cycle
// counting follows the paper's accounting (a "cycle" is one full
// discharge to the DoD floor, used for the lifetime remarks in §V-B.3).
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Config parameterizes a bank. All energies are watt-hours, powers watts.
type Config struct {
	// CapacityWh is the nameplate energy capacity (paper: 12 kWh).
	CapacityWh float64
	// DepthOfDischarge is the usable fraction of capacity (paper: 0.40
	// — the bank never drains below 60 % state of charge).
	//
	// ghlint:units frac
	DepthOfDischarge float64
	// Efficiency is the round-trip efficiency, applied on charge
	// (paper: 0.80).
	//
	// ghlint:units frac
	Efficiency float64
	// MaxChargeW caps charging power; 0 means unlimited.
	MaxChargeW float64
	// MaxDischargeW caps discharging power; 0 means unlimited.
	MaxDischargeW float64
}

// DefaultConfig reproduces the paper's setup: 10 × 12 V × 100 Ah
// lead-acid (12 kWh), DoD 40 %, efficiency 80 %.
func DefaultConfig() Config {
	return Config{
		CapacityWh:       12000,
		DepthOfDischarge: 0.40,
		Efficiency:       0.80,
	}
}

// ErrBadConfig is returned by New for invalid configurations.
var ErrBadConfig = errors.New("battery: bad config")

// RatedCycles is the cycle life of the paper's lead-acid bank at 40 %
// depth of discharge: 1300 recharge cycles (§V-A.2, after Kontorinis et
// al.).
const RatedCycles = 1300

// LifetimeYears estimates the bank's service life from an observed
// cycling rate: cycles consumed over the observed window, extrapolated
// against the rated cycle budget. Zero observed cycles yields +Inf
// (calendar aging is out of scope, as in the paper); a non-positive
// window yields 0.
func LifetimeYears(cycles int, observed time.Duration) float64 {
	if observed <= 0 {
		return 0
	}
	if cycles <= 0 {
		return math.Inf(1)
	}
	perYear := float64(cycles) / observed.Hours() * 24 * 365
	return RatedCycles / perYear
}

// Store is the battery abstraction the controller drives each epoch:
// budget queries before the source-selection plan, then at most one of
// Discharge or Charge when the enforcer applies it. *Bank implements it
// directly; *Lease implements it over a per-rack slice of a shared
// SiteBank. All methods are on the epoch hot path and must stay
// allocation-free.
type Store interface {
	// SoC reports the state of charge in [0, 1].
	//
	// ghlint:allocfree
	// ghlint:units result=frac
	SoC() float64
	// AtDoD reports whether the store is pinned at its DoD floor.
	//
	// ghlint:allocfree
	AtDoD() bool
	// AvailableDischargeW is the maximum power sustainable for d.
	//
	// ghlint:allocfree
	AvailableDischargeW(d time.Duration) float64
	// AcceptableChargeW is the maximum source-side charging power for d.
	//
	// ghlint:allocfree
	AcceptableChargeW(d time.Duration) float64
	// Discharge drains up to requestW for d, returning delivered power.
	//
	// ghlint:allocfree
	Discharge(requestW float64, d time.Duration) float64
	// Charge absorbs up to offerW source-side watts for d, returning the
	// power actually consumed.
	//
	// ghlint:allocfree
	Charge(offerW float64, d time.Duration, src Source) float64
}

// Bank is a battery bank. Not safe for concurrent use; the simulator
// owns it single-threaded, and the controller sees only snapshots.
type Bank struct {
	cfg      Config
	chargeWh float64 // current stored energy
	floorWh  float64 // minimum stored energy (DoD floor)
	epsWh    float64 // comparison tolerance, scaled to capacity

	cycles        int
	atFloor       bool // latched while resting at the floor
	dischargedWh  float64
	chargedWh     float64
	gridChargedWh float64
}

// New validates cfg and returns a bank at full charge (the paper
// initializes the battery to its maximal state, §V-B.1).
func New(cfg Config) (*Bank, error) {
	// The negated comparisons also reject NaN.
	if !(cfg.CapacityWh > 0) || math.IsInf(cfg.CapacityWh, 1) {
		return nil, fmt.Errorf("%w: capacity %v", ErrBadConfig, cfg.CapacityWh)
	}
	if !(cfg.DepthOfDischarge > 0 && cfg.DepthOfDischarge <= 1) {
		return nil, fmt.Errorf("%w: DoD %v", ErrBadConfig, cfg.DepthOfDischarge)
	}
	if !(cfg.Efficiency > 0 && cfg.Efficiency <= 1) {
		return nil, fmt.Errorf("%w: efficiency %v", ErrBadConfig, cfg.Efficiency)
	}
	if !(cfg.MaxChargeW >= 0 && cfg.MaxDischargeW >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN power cap", ErrBadConfig)
	}
	// The floor comparisons need a tolerance for accumulated charge
	// arithmetic rounding. A fixed 1e-9 Wh drops below one float64 ULP
	// once capacity reaches ~12 MWh (ULP(1.2e7) ≈ 1.9e-9 Wh), making
	// AtDoD() unlatchable at site scale, so the tolerance scales with
	// capacity; the 5e-14 factor keeps every rack-scale bank (≤ 20 kWh)
	// on the historical 1e-9 floor, bit-identical with prior releases.
	eps := cfg.CapacityWh * 5e-14
	if eps < 1e-9 {
		eps = 1e-9
	}
	return &Bank{
		cfg:      cfg,
		chargeWh: cfg.CapacityWh,
		floorWh:  cfg.CapacityWh * (1 - cfg.DepthOfDischarge),
		epsWh:    eps,
	}, nil
}

// ChargeWh reports the currently stored energy.
func (b *Bank) ChargeWh() float64 { return b.chargeWh }

// SoC reports the state of charge in [0, 1].
//
// ghlint:allocfree
// ghlint:units result=frac
func (b *Bank) SoC() float64 { return b.chargeWh / b.cfg.CapacityWh }

// AtDoD reports whether the bank has drained to its DoD floor and can no
// longer discharge.
//
// ghlint:allocfree
func (b *Bank) AtDoD() bool { return b.chargeWh <= b.floorWh+b.epsWh }

// Cycles reports completed discharge-to-DoD cycles (paper §V-B.3 counts
// ~2/day on the Low trace).
func (b *Bank) Cycles() int { return b.cycles }

// Totals reports lifetime energy flows: discharged to load, charged in
// (post-efficiency), and the charged-in share that came from the grid.
func (b *Bank) Totals() (dischargedWh, chargedWh, gridChargedWh float64) {
	return b.dischargedWh, b.chargedWh, b.gridChargedWh
}

// AvailableDischargeW returns the maximum power the bank can sustain for
// the given duration without crossing the DoD floor (and within the
// discharge cap).
//
// ghlint:allocfree
func (b *Bank) AvailableDischargeW(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	headroom := b.chargeWh - b.floorWh
	if headroom <= 0 {
		return 0
	}
	p := headroom / d.Hours()
	if b.cfg.MaxDischargeW > 0 && p > b.cfg.MaxDischargeW {
		p = b.cfg.MaxDischargeW
	}
	return p
}

// AcceptableChargeW returns the maximum charging power (pre-efficiency,
// i.e. power drawn from the source) the bank can absorb for duration d.
//
// ghlint:allocfree
func (b *Bank) AcceptableChargeW(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	room := b.cfg.CapacityWh - b.chargeWh
	if room <= 0 {
		return 0
	}
	// Source power × efficiency × hours = stored Wh.
	p := room / (b.cfg.Efficiency * d.Hours())
	if b.cfg.MaxChargeW > 0 && p > b.cfg.MaxChargeW {
		p = b.cfg.MaxChargeW
	}
	return p
}

// SetSoC forces the state of charge (for experiment setup, e.g. "the
// batteries have drained out", §V-B.4). The value clamps to the usable
// band [1−DoD, 1]; setting the floor marks a completed cycle boundary so
// subsequent discharges count cycles correctly.
func (b *Bank) SetSoC(frac float64) error {
	if !(frac >= 0 && frac <= 1) {
		return fmt.Errorf("%w: SoC %v", ErrBadConfig, frac)
	}
	wh := b.cfg.CapacityWh * frac
	if wh < b.floorWh {
		wh = b.floorWh
	}
	b.chargeWh = wh
	b.atFloor = b.AtDoD()
	return nil
}

// Fade permanently scales the bank's nameplate capacity by frac — the
// chaos framework's battery-aging event. The DoD floor and the
// capacity-relative comparison tolerance are recomputed for the new
// capacity, and stored energy is clamped into the shrunken usable band;
// landing on the new floor latches it as a cycle boundary (like
// SetSoC), not a completed discharge cycle. Fade(1) is a no-op and
// leaves the bank bit-identical.
func (b *Bank) Fade(frac float64) error {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return fmt.Errorf("%w: fade fraction %v", ErrBadConfig, frac)
	}
	if frac == 1 {
		return nil
	}
	b.cfg.CapacityWh *= frac
	b.floorWh = b.cfg.CapacityWh * (1 - b.cfg.DepthOfDischarge)
	eps := b.cfg.CapacityWh * 5e-14
	if eps < 1e-9 {
		eps = 1e-9
	}
	b.epsWh = eps
	if b.chargeWh > b.cfg.CapacityWh {
		b.chargeWh = b.cfg.CapacityWh
	}
	if b.chargeWh < b.floorWh {
		b.chargeWh = b.floorWh
	}
	b.atFloor = b.AtDoD()
	return nil
}

// State is a bank's complete durable state: everything New does not
// derive from Config. Serialized into daemon checkpoints; float fields
// survive a JSON round-trip bit-exactly (Go emits shortest-round-trip
// representations), which the crash-equivalence tests rely on.
type State struct {
	ChargeWh      float64 `json:"chargeWh"`
	Cycles        int     `json:"cycles"`
	AtFloor       bool    `json:"atFloor"`
	DischargedWh  float64 `json:"dischargedWh"`
	ChargedWh     float64 `json:"chargedWh"`
	GridChargedWh float64 `json:"gridChargedWh"`
}

// State snapshots the bank's mutable state.
func (b *Bank) State() State {
	return State{
		ChargeWh:      b.chargeWh,
		Cycles:        b.cycles,
		AtFloor:       b.atFloor,
		DischargedWh:  b.dischargedWh,
		ChargedWh:     b.chargedWh,
		GridChargedWh: b.gridChargedWh,
	}
}

// ErrBadState is returned by Restore for snapshots that violate the
// bank's invariants (typically a snapshot taken under a different
// Config, or a hand-edited file).
var ErrBadState = errors.New("battery: bad state")

// Restore overwrites the bank's mutable state from a snapshot taken by
// State on a bank with the same Config. The snapshot is validated
// against the bank's invariants before anything is applied, so a failed
// Restore leaves the bank untouched.
func (b *Bank) Restore(st State) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"chargeWh", st.ChargeWh},
		{"dischargedWh", st.DischargedWh},
		{"chargedWh", st.ChargedWh},
		{"gridChargedWh", st.GridChargedWh},
	} {
		name, v := f.name, f.v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite %s", ErrBadState, name)
		}
		if v < 0 {
			return fmt.Errorf("%w: negative %s %v", ErrBadState, name, v)
		}
	}
	if st.ChargeWh < b.floorWh || st.ChargeWh > b.cfg.CapacityWh {
		return fmt.Errorf("%w: charge %v Wh outside usable band [%v, %v]",
			ErrBadState, st.ChargeWh, b.floorWh, b.cfg.CapacityWh)
	}
	if st.Cycles < 0 {
		return fmt.Errorf("%w: negative cycles %d", ErrBadState, st.Cycles)
	}
	if st.GridChargedWh > st.ChargedWh {
		return fmt.Errorf("%w: grid-charged %v Wh exceeds total charged %v Wh",
			ErrBadState, st.GridChargedWh, st.ChargedWh)
	}
	b.chargeWh = st.ChargeWh
	b.cycles = st.Cycles
	b.atFloor = st.AtFloor
	b.dischargedWh = st.DischargedWh
	b.chargedWh = st.ChargedWh
	b.gridChargedWh = st.GridChargedWh
	return nil
}

// Source identifies where charging energy comes from. Only one source may
// charge the battery at a time (paper §IV-B.1 assumption 3).
type Source int

const (
	// SourceRenewable is on-site PV.
	SourceRenewable Source = iota + 1
	// SourceGrid is utility power.
	SourceGrid
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceRenewable:
		return "renewable"
	case SourceGrid:
		return "grid"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Discharge drains up to requestW for duration d and returns the power
// actually delivered (limited by the DoD floor and discharge cap).
//
// ghlint:allocfree
func (b *Bank) Discharge(requestW float64, d time.Duration) float64 {
	if requestW <= 0 || d <= 0 {
		return 0
	}
	p := requestW
	if avail := b.AvailableDischargeW(d); p > avail {
		p = avail
	}
	if p <= 0 {
		return 0
	}
	b.chargeWh -= p * d.Hours()
	if b.chargeWh < b.floorWh {
		b.chargeWh = b.floorWh
	}
	b.dischargedWh += p * d.Hours()
	if b.AtDoD() && !b.atFloor {
		b.cycles++
		b.atFloor = true
	}
	return p
}

// Charge absorbs up to offerW (source-side watts) for duration d from the
// given source and returns the source power actually consumed. Storage
// gains offerW × efficiency × hours.
//
// ghlint:allocfree
func (b *Bank) Charge(offerW float64, d time.Duration, src Source) float64 {
	if offerW <= 0 || d <= 0 {
		return 0
	}
	p := offerW
	if acc := b.AcceptableChargeW(d); p > acc {
		p = acc
	}
	if p <= 0 {
		return 0
	}
	stored := p * b.cfg.Efficiency * d.Hours()
	b.chargeWh += stored
	if b.chargeWh > b.cfg.CapacityWh {
		b.chargeWh = b.cfg.CapacityWh
	}
	b.chargedWh += stored
	if src == SourceGrid {
		b.gridChargedWh += stored
	}
	if b.chargeWh > b.floorWh+b.epsWh {
		b.atFloor = false
	}
	return p
}

// Site-scale storage: one shared Bank carved into per-rack epoch leases.
//
// The fleet coordinator cannot hand racks the shared *Bank directly —
// racks step in parallel, and Bank is single-threaded state. Instead,
// each epoch the coordinator Carves the bank's available discharge and
// charge power into per-rack budgets (one Lease per rack, weighted by
// the site allocator), the racks step concurrently mutating only their
// own Lease, and after the parallelism barrier Settle replays the
// accumulated flows onto the real Bank in rack-index order. The replay
// order is fixed, so the site battery trace is bit-identical at every
// parallelism level.
//
// A Lease's view of the site is the carve-time snapshot adjusted by its
// own flows: SoC moves only with the lease's local energy, and AtDoD is
// the carve-time value. Racks therefore see each other's battery
// traffic with a one-epoch lag — the price of the barrier, and exactly
// the staleness a real site EMS telemetry loop has.
package battery

import (
	"fmt"
	"time"
)

// Lease is one rack's slice of a SiteBank for a single epoch. It
// implements Store. Each lease is owned by one rack goroutine between
// Carve and Settle; leases never touch shared state.
type Lease struct {
	capacityWh float64
	efficiency float64

	// Carve-time budgets, decremented as the rack draws on them.
	dischargeBudgetW float64
	chargeBudgetW    float64

	// Local estimate of site stored energy (carve-time snapshot plus
	// this lease's own flows).
	siteWh float64
	atDoD  bool

	// Flows accumulated this epoch, replayed by Settle.
	dischargedW       float64
	chargedRenewableW float64
	chargedGridW      float64
}

// SoC reports the lease's estimate of the site state of charge.
//
// ghlint:allocfree
func (l *Lease) SoC() float64 { return l.siteWh / l.capacityWh }

// AtDoD reports the carve-time DoD-floor latch of the site bank.
//
// ghlint:allocfree
func (l *Lease) AtDoD() bool { return l.atDoD }

// AvailableDischargeW returns the remaining discharge budget. The
// budget was computed for the carve duration; d only gates d <= 0.
//
// ghlint:allocfree
func (l *Lease) AvailableDischargeW(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return l.dischargeBudgetW
}

// AcceptableChargeW returns the remaining source-side charge budget.
//
// ghlint:allocfree
func (l *Lease) AcceptableChargeW(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return l.chargeBudgetW
}

// Discharge drains up to requestW from the lease's budget.
//
// ghlint:allocfree
func (l *Lease) Discharge(requestW float64, d time.Duration) float64 {
	if requestW <= 0 || d <= 0 {
		return 0
	}
	p := requestW
	if p > l.dischargeBudgetW {
		p = l.dischargeBudgetW
	}
	if p <= 0 {
		return 0
	}
	l.dischargeBudgetW -= p
	l.dischargedW += p
	l.siteWh -= p * d.Hours()
	return p
}

// Charge absorbs up to offerW source-side watts against the budget.
//
// ghlint:allocfree
func (l *Lease) Charge(offerW float64, d time.Duration, src Source) float64 {
	if offerW <= 0 || d <= 0 {
		return 0
	}
	p := offerW
	if p > l.chargeBudgetW {
		p = l.chargeBudgetW
	}
	if p <= 0 {
		return 0
	}
	l.chargeBudgetW -= p
	if src == SourceGrid {
		l.chargedGridW += p
	} else {
		l.chargedRenewableW += p
	}
	l.siteWh += p * l.efficiency * d.Hours()
	return p
}

// SiteBank is a shared battery bank plus one reusable Lease per rack.
// Not safe for concurrent use itself; only the leases handed out
// between Carve and Settle may be used concurrently (one per rack).
type SiteBank struct {
	bank   *Bank
	leases []Lease
}

// NewSiteBank builds a site bank with cfg and one lease per rack.
func NewSiteBank(cfg Config, racks int) (*SiteBank, error) {
	if racks <= 0 {
		return nil, fmt.Errorf("%w: site bank needs racks > 0, got %d", ErrBadConfig, racks)
	}
	b, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &SiteBank{bank: b, leases: make([]Lease, racks)}, nil
}

// Bank exposes the underlying shared bank (setup and reporting only —
// never between Carve and Settle).
func (s *SiteBank) Bank() *Bank { return s.bank }

// Lease returns rack i's lease. The pointer is stable across epochs;
// budgets are refreshed by Carve.
func (s *SiteBank) Lease(i int) *Lease { return &s.leases[i] }

// Carve splits the bank's currently available discharge and charge
// power across the leases by weight (weights must sum to ~1; they are
// used as-is, so any shortfall is simply power left unoffered) and
// snapshots the bank state into each lease.
func (s *SiteBank) Carve(weights []float64, d time.Duration) error {
	if len(weights) != len(s.leases) {
		return fmt.Errorf("%w: %d weights for %d leases", ErrBadConfig, len(weights), len(s.leases))
	}
	avail := s.bank.AvailableDischargeW(d)
	acc := s.bank.AcceptableChargeW(d)
	wh := s.bank.ChargeWh()
	atDoD := s.bank.AtDoD()
	for i := range s.leases {
		l := &s.leases[i]
		*l = Lease{
			capacityWh:       s.bank.cfg.CapacityWh,
			efficiency:       s.bank.cfg.Efficiency,
			dischargeBudgetW: weights[i] * avail,
			chargeBudgetW:    weights[i] * acc,
			siteWh:           wh,
			atDoD:            atDoD,
		}
	}
	return nil
}

// Settlement aggregates the epoch's settled site battery flows
// (source-side watts, summed over racks).
type Settlement struct {
	DischargeW       float64
	ChargeRenewableW float64
	ChargeGridW      float64
}

// Settle replays every lease's accumulated flows onto the shared bank
// in rack-index order and zeroes the leases. Because Carve bounded each
// budget by the bank's own limits, the replay is not clipped (beyond
// float rounding at the last ULP) and cycle/flow accounting lands on
// the real bank exactly once per epoch.
func (s *SiteBank) Settle(d time.Duration) Settlement {
	var out Settlement
	for i := range s.leases {
		l := &s.leases[i]
		if l.dischargedW > 0 {
			out.DischargeW += s.bank.Discharge(l.dischargedW, d)
		}
		if l.chargedRenewableW > 0 {
			out.ChargeRenewableW += s.bank.Charge(l.chargedRenewableW, d, SourceRenewable)
		}
		if l.chargedGridW > 0 {
			out.ChargeGridW += s.bank.Charge(l.chargedGridW, d, SourceGrid)
		}
		l.dischargedW, l.chargedRenewableW, l.chargedGridW = 0, 0, 0
	}
	return out
}

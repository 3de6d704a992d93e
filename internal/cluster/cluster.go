// Package cluster lifts the rack-level GreenHetero controller to a
// multi-rack green datacenter (paper §II-A, Fig. 2): a per-epoch fleet
// coordinator. Each rack runs its own controller (the paper's
// distributed deployment, §IV-A), but the site's PV feed, battery bank,
// and grid budget are shared resources — so every scheduling epoch the
// coordinator collects per-rack demand bids (believed peaks from the
// controllers' cached projections, never ground truth), asks a site
// Allocator for a weight vector, carves the shared battery into
// per-rack leases, and steps every rack in parallel under its
// allocation. This is a hierarchical version of the paper's PAR solve:
// site-level split over rack bids, then the rack-local PAR as before.
//
// Determinism: racks step through runner.Map with a per-epoch barrier,
// each rack's noise stream is derived via runner.DeriveSeed, bids and
// weights are computed serially in rack order, and the shared bank is
// settled in rack-index order after the barrier — so a fleet run is
// bit-identical at every parallelism level.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"greenhetero/internal/battery"
	"greenhetero/internal/breaker"
	"greenhetero/internal/policy"
	"greenhetero/internal/runner"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

// Supply is the site-level resource pool for one epoch, as the
// allocator sees it.
type Supply struct {
	// RenewableW is the site PV output this epoch.
	RenewableW float64
	// BatteryDischargeW is the site bank's available discharge power.
	BatteryDischargeW float64
	// BatteryChargeW is the site bank's acceptable charging power.
	BatteryChargeW float64
	// GridBudgetW is the site grid cap.
	GridBudgetW float64
}

// PotentialW is the total power the site could deliver to racks this
// epoch (PV + battery + grid).
func (s Supply) PotentialW() float64 {
	return s.RenewableW + s.BatteryDischargeW + s.GridBudgetW
}

// Allocator splits the site supply across racks each epoch. Weights
// writes one weight per rack into out (len(out) == len(bids)); weights
// must be non-negative and sum to at most 1, and every site resource
// (PV, battery budgets, grid) is divided by the same vector.
// Implementations must be deterministic and allocation-free: they run
// once per epoch inside the fleet hot loop.
type Allocator interface {
	// Name identifies the strategy ("uniform", "demand-proportional",
	// "hierarchical-par").
	Name() string
	// Weights computes the epoch's split from the racks' demand bids
	// (believed peak watts) and the site supply.
	Weights(bids []float64, site Supply, out []float64) error
}

// Uniform gives every rack an equal share regardless of demand — the
// heterogeneity-oblivious baseline.
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Weights implements Allocator.
func (Uniform) Weights(bids []float64, _ Supply, out []float64) error {
	w := 1 / float64(len(out))
	for i := range out {
		out[i] = w
	}
	return nil
}

// DemandProportional sizes each rack's share by its demand bid — the
// same heterogeneity-awareness GreenHetero applies within a rack,
// applied one level up. Zero total demand falls back to uniform.
type DemandProportional struct{}

// Name implements Allocator.
func (DemandProportional) Name() string { return "demand-proportional" }

// Weights implements Allocator.
func (DemandProportional) Weights(bids []float64, _ Supply, out []float64) error {
	var total float64
	for _, b := range bids {
		total += b
	}
	if total <= 0 {
		return Uniform{}.Weights(bids, Supply{}, out)
	}
	for i, b := range bids {
		out[i] = b / total
	}
	return nil
}

// HierarchicalPAR water-fills the site's deliverable power over the
// rack bids, max-min fair: when supply covers demand every rack is
// granted its bid (demand-proportional); under scarcity all racks are
// raised toward an equal fill level, so small racks saturate at their
// bid and the shortfall lands on the largest bidders — the site-level
// analogue of the paper's PAR solve, which also equalizes marginal
// allocations under a shared budget. Weights are the normalized grants.
type HierarchicalPAR struct{}

// Name implements Allocator.
func (HierarchicalPAR) Name() string { return "hierarchical-par" }

// Weights implements Allocator.
func (HierarchicalPAR) Weights(bids []float64, site Supply, out []float64) error {
	var sumBids float64
	active := 0
	for i, b := range bids {
		out[i] = 0
		if b > 0 {
			sumBids += b
			active++
		}
	}
	target := site.PotentialW()
	if sumBids < target {
		target = sumBids
	}
	if sumBids <= 0 || target <= 0 {
		return Uniform{}.Weights(bids, Supply{}, out)
	}

	// Water-fill: repeatedly offer every unsatisfied rack an equal share
	// of the remaining power; racks whose residual bid fits are granted
	// fully and drop out. Each round either retires a rack (at most
	// len(bids) rounds) or every remaining rack absorbs the full share
	// and the loop ends.
	remaining := target
	for active > 0 && remaining > 0 {
		share := remaining / float64(active)
		progress := false
		for i, b := range bids {
			if b <= 0 || out[i] >= b {
				continue
			}
			if need := b - out[i]; need <= share {
				out[i] = b
				remaining -= need
				active--
				progress = true
			}
		}
		if !progress {
			for i, b := range bids {
				if b > 0 && out[i] < b {
					out[i] += share
				}
			}
			break
		}
	}

	var granted float64
	for _, g := range out {
		granted += g
	}
	if granted <= 0 {
		return Uniform{}.Weights(bids, Supply{}, out)
	}
	for i := range out {
		out[i] /= granted
	}
	return nil
}

// Allocators lists the built-in strategies.
func Allocators() []Allocator {
	return []Allocator{Uniform{}, DemandProportional{}, HierarchicalPAR{}}
}

// AllocatorByName resolves a strategy by its Name.
func AllocatorByName(name string) (Allocator, error) {
	for _, a := range Allocators() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("%w: unknown allocator %q", ErrBadConfig, name)
}

// RackConfig describes one rack's deployment. Power and storage are
// site-level concerns (Config); a rack brings its hardware, workload,
// and policy.
type RackConfig struct {
	// Rack is the rack's server composition. Rack names must be unique
	// across the fleet.
	Rack *server.Rack
	// Workload runs on every group of the rack.
	Workload workload.Workload
	// GroupWorkloads, when non-nil, assigns each rack group its own
	// workload (a mixed rack, one entry per group); Workload is then
	// ignored. The demand bid prices each group's own workload.
	GroupWorkloads []workload.Workload
	// Policy allocates power within the rack.
	Policy policy.Policy
}

// Config describes a fleet run.
type Config struct {
	// Racks lists the rack deployments.
	Racks []RackConfig
	// Solar is the site-level PV trace; the allocator splits it across
	// racks each epoch.
	Solar *trace.Trace
	// Allocator is the site split strategy (nil = Uniform).
	Allocator Allocator
	// SiteBattery configures the shared site bank; zero value means the
	// paper's rack default scaled by the rack count (12 kWh per rack).
	SiteBattery battery.Config
	// SiteGridBudgetW caps the site's total grid draw, split by the
	// allocator alongside the PV feed.
	SiteGridBudgetW float64
	// InitialSoC sets the site bank's starting state of charge (0 =
	// full, as in the paper §V-B.1).
	//
	// ghlint:units frac
	InitialSoC float64
	// Epochs is the simulation length.
	Epochs int
	// Seed drives measurement noise; each rack's stream is derived from
	// it with a stable per-rack key (runner.DeriveSeed), so racks have
	// independent noise but the fleet run is reproducible bit-for-bit.
	Seed int64
	// Parallelism bounds concurrent rack steps within an epoch: 0 = one
	// worker per CPU, 1 = serial. Results are identical at every level.
	Parallelism int
	// Disturber, when non-nil, injects per-epoch disturbances (chaos):
	// see the Disturbance effect vector. Nil leaves the run undisturbed
	// and bit-identical to a pre-chaos fleet run.
	Disturber Disturber
	// Breaker tunes the per-rack circuit breaker that quarantines
	// repeatedly failing racks (zero fields = defaults: threshold 2,
	// cooldown 2 epochs).
	Breaker breaker.Config
	// Checkpointer, when non-nil, persists one rack's state through the
	// WAL layer after each served epoch and drives its crash recovery.
	Checkpointer Checkpointer
}

// ErrBadConfig is returned for invalid fleet configurations.
var ErrBadConfig = errors.New("cluster: bad config")

// RackResult pairs a rack's label with its simulation record.
type RackResult struct {
	Name   string
	Result *sim.Result
}

// SiteEpoch records one epoch's site-level totals.
type SiteEpoch struct {
	Epoch int
	// RenewableW is the site PV output offered to the allocator.
	RenewableW float64
	// BidW is the racks' total demand bid.
	BidW float64
	// SupplyW and GridW sum the racks' delivered supply and grid draw.
	SupplyW float64
	GridW   float64
	// BatteryOutW and BatteryInW are the settled site-bank flows
	// (discharge to racks; source-side charging power absorbed).
	BatteryOutW float64
	BatteryInW  float64
	// BatterySoC is the site bank's state of charge after settlement.
	//
	// ghlint:units frac
	BatterySoC float64
	// DownRacks counts racks that failed or sat quarantined this epoch;
	// QuarantinedRacks is the cooldown subset. Omitted when zero so
	// healthy-run traces serialize unchanged.
	DownRacks        int `json:",omitempty"`
	QuarantinedRacks int `json:",omitempty"`
	// RedistributedW is the supply share the epoch's missing racks would
	// have commanded (priced by the allocator at their last-known bids),
	// absorbed by the serving fleet instead.
	RedistributedW float64 `json:",omitempty"`
}

// FleetResult aggregates a fleet run: per-rack records plus the
// site-level epoch trace.
type FleetResult struct {
	// Allocator is the strategy that produced the run.
	Allocator string
	// Racks holds each rack's full simulation record.
	Racks []RackResult
	// Site is the per-epoch site trace.
	Site []SiteEpoch
	// BatteryCycles counts the site bank's discharge-to-DoD cycles.
	BatteryCycles int
	// Health is each rack's degraded-mode history, index-aligned with
	// Racks. In an undisturbed run every rack simply serves every epoch.
	Health []RackHealth
}

// TotalPerf sums mean throughput across racks.
func (r *FleetResult) TotalPerf() float64 {
	var sum float64
	for _, rr := range r.Racks {
		sum += rr.Result.MeanPerf()
	}
	return sum
}

// TotalPerfScarce sums scarce-epoch mean throughput across racks.
func (r *FleetResult) TotalPerfScarce() float64 {
	var sum float64
	for _, rr := range r.Racks {
		sum += rr.Result.MeanPerfScarce()
	}
	return sum
}

// TotalGridWh sums grid energy across racks.
func (r *FleetResult) TotalGridWh() float64 {
	var sum float64
	for _, rr := range r.Racks {
		sum += rr.Result.GridEnergyWh()
	}
	return sum
}

// MeanEPU averages rack EPU weighted equally.
func (r *FleetResult) MeanEPU() float64 {
	if len(r.Racks) == 0 {
		return 0
	}
	var sum float64
	for _, rr := range r.Racks {
		sum += rr.Result.MeanEPU()
	}
	return sum / float64(len(r.Racks))
}

// validate checks cfg and applies defaults, returning the ready config.
func (cfg Config) validate() (Config, error) {
	if len(cfg.Racks) == 0 {
		return cfg, fmt.Errorf("%w: no racks", ErrBadConfig)
	}
	if cfg.Solar == nil {
		return cfg, fmt.Errorf("%w: nil solar trace", ErrBadConfig)
	}
	if cfg.Epochs < 1 {
		return cfg, fmt.Errorf("%w: epochs %d", ErrBadConfig, cfg.Epochs)
	}
	if cfg.SiteGridBudgetW < 0 || math.IsNaN(cfg.SiteGridBudgetW) {
		return cfg, fmt.Errorf("%w: site grid budget %v", ErrBadConfig, cfg.SiteGridBudgetW)
	}
	if cfg.InitialSoC < 0 || cfg.InitialSoC > 1 {
		return cfg, fmt.Errorf("%w: initial SoC %v", ErrBadConfig, cfg.InitialSoC)
	}
	if cfg.Allocator == nil {
		cfg.Allocator = Uniform{}
	}
	if cfg.SiteBattery == (battery.Config{}) {
		cfg.SiteBattery = battery.DefaultConfig()
		cfg.SiteBattery.CapacityWh *= float64(len(cfg.Racks))
	}
	seen := make(map[string]int, len(cfg.Racks))
	for i, rc := range cfg.Racks {
		if rc.Rack == nil || rc.Policy == nil {
			return cfg, fmt.Errorf("%w: rack %d incomplete", ErrBadConfig, i)
		}
		if rc.GroupWorkloads == nil && rc.Workload.ID == "" {
			return cfg, fmt.Errorf("%w: rack %d has no workload", ErrBadConfig, i)
		}
		if rc.GroupWorkloads != nil && len(rc.GroupWorkloads) != rc.Rack.NumGroups() {
			return cfg, fmt.Errorf("%w: rack %d: %d group workloads for %d groups",
				ErrBadConfig, i, len(rc.GroupWorkloads), rc.Rack.NumGroups())
		}
		name := rc.Rack.Name()
		if j, dup := seen[name]; dup {
			return cfg, fmt.Errorf("%w: racks %d and %d share the name %q (reports would be ambiguous)",
				ErrBadConfig, j, i, name)
		}
		seen[name] = i
	}
	if ck := cfg.Checkpointer; ck != nil {
		if r := ck.Rack(); r < 0 || r >= len(cfg.Racks) {
			return cfg, fmt.Errorf("%w: checkpointer rack %d of %d", ErrBadConfig, r, len(cfg.Racks))
		}
	}
	return cfg, nil
}

// Run simulates the fleet: per-epoch site allocation over live rack
// sessions, racks stepping in parallel between barriers.
//
// The fleet degrades instead of failing the epoch. A rack whose bid or
// step errors — or that a Disturber marks down — is skipped for the
// epoch and charged against its per-rack breaker; once the breaker
// opens the rack is quarantined for a cooldown, then probed half-open.
// A missing rack's PV/battery/grid share is redistributed by the live
// allocator the moment it vanishes from the bid vector, and the share
// it would have commanded is recorded in SiteEpoch.RedistributedW.
// Setup failures (NewSession) still abort: those are configuration
// errors, not runtime faults.
func Run(cfg Config) (*FleetResult, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	n := len(cfg.Racks)
	d := cfg.Solar.Step

	site, err := battery.NewSiteBank(cfg.SiteBattery, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: site bank: %w", err)
	}
	if cfg.InitialSoC != 0 {
		if err := site.Bank().SetSoC(cfg.InitialSoC); err != nil {
			return nil, fmt.Errorf("cluster: site bank: %w", err)
		}
	}

	sessions := make([]*sim.Session, n)
	results := make([]*sim.Result, n)
	ctl := make([]rackCtl, n)
	for i, rc := range cfg.Racks {
		s, err := sim.NewSession(sim.Config{
			Rack:           rc.Rack,
			Workload:       rc.Workload,
			GroupWorkloads: rc.GroupWorkloads,
			Policy:         rc.Policy,
			Solar:          cfg.Solar,
			Epochs:         cfg.Epochs,
			Bank:           site.Lease(i),
			Seed:           runner.DeriveSeed(cfg.Seed, fmt.Sprintf("rack/%d/%s", i, rc.Rack.Name())),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: rack %s: %w", rc.Rack.Name(), err)
		}
		sessions[i] = s
		results[i] = s.NewResult()
		ctl[i].brk = breaker.New(cfg.Breaker, defaultRackThreshold)
		ctl[i].downSince = -1
		ctl[i].health.Name = rc.Rack.Name()
	}

	var dist *Disturbance
	if cfg.Disturber != nil {
		dist = NewDisturbance(n)
	}
	ck := cfg.Checkpointer
	ckRack := -1
	ckDirty := false // an uncommitted (crashed) epoch forces recovery
	if ck != nil {
		ckRack = ck.Rack()
	}

	out := &FleetResult{
		Allocator: cfg.Allocator.Name(),
		Site:      make([]SiteEpoch, 0, cfg.Epochs),
	}
	var (
		mode        = make([]rackMode, n)
		failErr     = make([]error, n)
		bids        = make([]float64, n) // compact: one entry per bidding rack
		idx         = make([]int, n)     // rack index per compact slot
		weights     = make([]float64, n) // compact allocator output
		weightsFull = make([]float64, n) // scattered to rack indexing
		ghostBids   = make([]float64, n) // scratch: redistribution pricing
		ghostW      = make([]float64, n)
	)
	capacityFrac := 1.0
	for e := 0; e < cfg.Epochs; e++ {
		// 0. Let the disturber write this epoch's effect vector, and
		// apply any battery aging to the shared bank.
		if dist != nil {
			dist.Reset()
			cfg.Disturber.Disturb(e, dist)
			if f := dist.BatteryCapacityFrac; f < capacityFrac {
				if err := site.Bank().Fade(f / capacityFrac); err != nil {
					return nil, fmt.Errorf("cluster: battery fade: %w", err)
				}
				capacityFrac = f
			}
		}

		// 1. Classify every rack for the epoch, serially in rack order.
		// Partitioned racks hold their last grant, reserved off the top
		// of the split below.
		quarantined := 0
		var heldPVW, heldGridW float64
		for i := range sessions {
			c := &ctl[i]
			failErr[i] = nil
			switch {
			case dist != nil && dist.Absent[i]:
				mode[i] = modeAbsent
				c.health.AbsentEpochs++
			case !c.brk.Allow():
				mode[i] = modeCooling
				c.health.QuarantinedEpochs++
				quarantined++
			case dist != nil && dist.Down[i]:
				mode[i] = modeFail
				failErr[i] = errRackDown
			case dist != nil && dist.Partitioned[i]:
				mode[i] = modeHeld
				c.health.PartitionedEpochs++
				heldPVW += c.heldPVW
				heldGridW += c.heldGridW
			default:
				mode[i] = modeServe
			}
		}

		// 1b. WAL recovery: after a crashed commit the checkpointed
		// rack's in-memory session is notionally lost — before its next
		// attempt it must restore from durable state.
		if ck != nil && ckDirty && (mode[ckRack] == modeServe || mode[ckRack] == modeHeld) {
			if err := ck.Recover(e, sessions[ckRack]); err != nil {
				mode[ckRack] = modeFail
				failErr[ckRack] = fmt.Errorf("recover: %w", err)
			} else {
				ckDirty = false
				ctl[ckRack].health.Recoveries++
			}
		}

		// 2. Collect demand bids from the serving racks, serially in
		// rack order, into a compact vector — a missing rack's absence
		// here is what redistributes its share.
		var bidTotal float64
		k := 0
		for i, s := range sessions {
			if mode[i] != modeServe {
				continue
			}
			b, err := s.DemandBidW()
			if err != nil {
				mode[i] = modeFail
				failErr[i] = fmt.Errorf("bid: %w", err)
				continue
			}
			c := &ctl[i]
			c.lastBidW = b
			c.haveBid = true
			idx[k] = i
			bids[k] = b
			bidTotal += b
			k++
		}

		// 3. Split the site supply over the serving racks. Held grants
		// come off the top; a price spike's demand response scales the
		// grid budget.
		pv := cfg.Solar.At(e)
		gridBudgetW := cfg.SiteGridBudgetW
		if dist != nil {
			gridBudgetW *= dist.GridBudgetScaleFrac
		}
		splitPV := pv - heldPVW
		if splitPV < 0 {
			splitPV = 0
		}
		splitGrid := gridBudgetW - heldGridW
		if splitGrid < 0 {
			splitGrid = 0
		}
		supply := Supply{
			RenewableW:        splitPV,
			BatteryDischargeW: site.Bank().AvailableDischargeW(d),
			BatteryChargeW:    site.Bank().AcceptableChargeW(d),
			GridBudgetW:       splitGrid,
		}
		for i := range weightsFull {
			weightsFull[i] = 0
		}
		if k > 0 {
			if err := cfg.Allocator.Weights(bids[:k], supply, weights[:k]); err != nil {
				return nil, fmt.Errorf("cluster: allocator %s: %w", cfg.Allocator.Name(), err)
			}
			var wsum float64
			for j, w := range weights[:k] {
				if w < 0 || math.IsNaN(w) {
					return nil, fmt.Errorf("cluster: allocator %s: weight[%d] = %v", cfg.Allocator.Name(), idx[j], w)
				}
				wsum += w
			}
			if wsum > 1+1e-9 {
				return nil, fmt.Errorf("cluster: allocator %s: weights sum to %v > 1", cfg.Allocator.Name(), wsum)
			}
			for j := 0; j < k; j++ {
				weightsFull[idx[j]] = weights[j]
			}
		}
		if err := site.Carve(weightsFull, d); err != nil {
			return nil, fmt.Errorf("cluster: carve: %w", err)
		}

		// 3b. Redistribution accounting: price what the missing racks
		// would have commanded by re-running the allocator over the
		// serving bids plus the missing racks' last-known bids. Pure
		// reporting — the real split above never sees these ghosts.
		var redistributedW float64
		g := k
		for i := range mode {
			if (mode[i] == modeFail || mode[i] == modeCooling) && ctl[i].haveBid {
				ghostBids[g] = ctl[i].lastBidW
				g++
			}
		}
		if g > k {
			copy(ghostBids[:k], bids[:k])
			if err := cfg.Allocator.Weights(ghostBids[:g], supply, ghostW[:g]); err == nil {
				pot := supply.PotentialW()
				for j := k; j < g; j++ {
					redistributedW += ghostW[j] * pot
				}
			}
		}

		// 4. Apply flash-crowd demand scaling, serially, pre-barrier.
		if dist != nil {
			for i, s := range sessions {
				if mode[i] != modeServe && mode[i] != modeHeld {
					continue
				}
				if err := s.SetIntensityScale(dist.IntensityScale[i]); err != nil {
					return nil, fmt.Errorf("cluster: rack %s: %w", cfg.Racks[i].Rack.Name(), err)
				}
			}
		}

		// 5. Step the live racks in parallel (the per-epoch barrier).
		// Worker i reads only its own rack's state and never returns an
		// error: a failed step is an outcome, not an abort.
		outs, err := runner.Map(cfg.Parallelism, n, func(i int) (stepOutcome, error) {
			var a sim.Allocation
			switch mode[i] {
			case modeServe:
				a = sim.Allocation{
					RenewableW:  weightsFull[i] * supply.RenewableW,
					GridBudgetW: weightsFull[i] * supply.GridBudgetW,
				}
			case modeHeld:
				a = sim.Allocation{RenewableW: ctl[i].heldPVW, GridBudgetW: ctl[i].heldGridW}
			default:
				return stepOutcome{}, nil
			}
			if dist != nil {
				// Weather-front derate lands after the split: the
				// allocator priced clear-sky supply, so the front hits as
				// forecast error.
				a.RenewableW *= dist.PVScaleFrac[i]
			}
			er, err := sessions[i].StepAllocated(a)
			if err != nil {
				return stepOutcome{err: err}, nil
			}
			return stepOutcome{er: er, served: true}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: epoch %d: %w", e, err)
		}

		// 6. Post-barrier bookkeeping, serially in rack order: breaker
		// transitions, WAL commit for the checkpointed rack, epoch
		// records. Every session is then aligned to the site clock —
		// skipped racks advance without consuming their noise stream.
		se := SiteEpoch{
			Epoch:            e,
			RenewableW:       supply.RenewableW,
			BidW:             bidTotal,
			QuarantinedRacks: quarantined,
			RedistributedW:   redistributedW,
		}
		for i := range outs {
			c := &ctl[i]
			switch {
			case mode[i] == modeAbsent:
				// pre-startup: no bookkeeping
			case mode[i] == modeCooling:
				se.DownRacks++
			case failErr[i] != nil || outs[i].err != nil:
				c.brk.Fail()
				if c.downSince < 0 {
					c.downSince = e
				}
				c.health.FailedEpochs++
				se.DownRacks++
			case outs[i].served:
				committed := true
				if ck != nil && i == ckRack {
					if cerr := ck.Commit(e, sessions[i]); cerr != nil {
						ckDirty = true
						committed = false
					}
				}
				// The physical epoch happened either way; record it.
				results[i].Epochs = append(results[i].Epochs, outs[i].er)
				se.SupplyW += outs[i].er.SupplyW
				se.GridW += outs[i].er.GridW
				c.health.ServedEpochs++
				if mode[i] == modeServe {
					c.heldPVW = weightsFull[i] * supply.RenewableW
					c.heldGridW = weightsFull[i] * supply.GridBudgetW
				}
				if committed {
					if c.brk.Succeed() {
						c.health.Quarantines = append(c.health.Quarantines,
							Quarantine{FromEpoch: c.downSince, RejoinEpoch: e, RecoveryEpochs: e - c.downSince})
					}
					c.downSince = -1
				} else {
					// Served, but the daemon crashed before the epoch was
					// durable: a breaker failure, and the rack recovers
					// from the WAL before its next attempt.
					c.brk.Fail()
					if c.downSince < 0 {
						c.downSince = e
					}
				}
			}
			for sessions[i].Epoch() <= e {
				sessions[i].SkipEpoch()
			}
		}

		// 7. Settle the shared bank in rack-index order and record the
		// site trace.
		settle := site.Settle(d)
		se.BatteryOutW = settle.DischargeW
		se.BatteryInW = settle.ChargeRenewableW + settle.ChargeGridW
		se.BatterySoC = site.Bank().SoC()
		out.Site = append(out.Site, se)
	}

	out.BatteryCycles = site.Bank().Cycles()
	out.Racks = make([]RackResult, n)
	out.Health = make([]RackHealth, n)
	for i, rc := range cfg.Racks {
		out.Racks[i] = RackResult{Name: rc.Rack.Name(), Result: results[i]}
		c := &ctl[i]
		if c.brk.State() != breaker.Closed {
			// Still down when the run ended: leave the episode open.
			c.health.Quarantines = append(c.health.Quarantines,
				Quarantine{FromEpoch: c.downSince, RejoinEpoch: -1, RecoveryEpochs: -1})
		}
		out.Health[i] = c.health
	}
	return out, nil
}

// errRackDown marks a disturbance-injected crash window.
var errRackDown = errors.New("cluster: rack down (disturbance)")

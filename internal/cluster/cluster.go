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
// Determinism: racks step through runner.For with a per-epoch barrier,
// each rack's noise stream is derived via runner.DeriveSeed, weights are
// computed serially in rack order, and the shared bank is settled in
// rack-index order after the barrier — so a fleet run is bit-identical
// at every parallelism level. Inside the barrier a worker touches only
// the racks it claimed: right after a rack's step it commits the
// checkpointed rack's state and computes the rack's next demand bid,
// both functions of that rack's session alone. The bid is kept only
// while nothing else can change the session: the next step task and a
// WAL recovery both discard it, and the serial bid phase computes any
// bid it lacks exactly as before, so where a bid is computed never
// reaches the result. Set-up goes through the same runner.For before
// the first epoch: task i builds rack i's session, result and breaker
// into rack i's slots from its own lease and its own derived seed, so
// the fleet starts identically at every parallelism, and a set-up error
// is the lowest failing rack's.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"

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
	// Parallelism bounds concurrent rack set-ups before the first epoch
	// and concurrent rack steps within an epoch: 0 = one worker per
	// CPU, 1 = serial. Results are identical at every level.
	Parallelism int
	// Disturber, when non-nil, injects per-epoch disturbances (chaos):
	// see the Disturbance effect vector. Nil leaves the vector all clear
	// every epoch: the run of a Disturber that never writes it.
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
	if err := cfg.Solar.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: solar %w", ErrBadConfig, err)
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
// sessions, racks stepping in parallel between barriers. It is the
// loop over a Fleet: NewFleet, Step until Done, then Result.
func Run(cfg Config) (*FleetResult, error) {
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	for !f.Done() {
		if err := f.Step(); err != nil {
			return nil, err
		}
	}
	return f.Result(), nil
}

// Fleet is a fleet run stepped one site epoch at a time, the fleet's
// counterpart of sim.Session. Each Step runs the epoch's phases in
// order: disturb, classify (with WAL recovery), bid, split (with the
// carve), ghost pricing, the step barrier, bookkeeping and settle.
//
// The fleet degrades instead of failing the epoch. A rack whose bid or
// step errors — or that a Disturber marks down — is skipped for the
// epoch and charged against its per-rack breaker; once the breaker
// opens the rack is quarantined for a cooldown, then probed half-open.
// A missing rack's PV/battery/grid share is redistributed by the live
// allocator the moment it vanishes from the bid vector, and the share
// it would have commanded is recorded in SiteEpoch.RedistributedW.
type Fleet struct {
	cfg          Config
	site         *battery.SiteBank
	sessions     []*sim.Session
	results      []*sim.Result
	ctl          []rackCtl
	dist         *Disturbance // the epoch's effects; all clear without a Disturber
	capacityFrac float64      // site bank capacity left after the fades so far
	ckRack       int          // the checkpointed rack, -1 without a Checkpointer
	ckDirty      bool         // an uncommitted (crashed) epoch forces recovery
	epochs       []SiteEpoch
	err          error // the error that stopped the run

	// The epoch being built, rewritten by every Step.
	se                 SiteEpoch
	supply             Supply
	heldPVW, heldGridW float64 // partitioned racks' grants, off the top
	k                  int     // bidding racks: bids[:k], idx[:k]
	mode               []rackMode
	bids               []float64 // compact: one entry per bidding rack
	idx                []int     // rack index per compact slot
	weights            []float64 // compact allocator output
	weightsFull        []float64 // scattered to rack indexing
	ghostBids, ghostW  []float64 // scratch: redistribution pricing
	outs               []stepOutcome
}

// NewFleet validates cfg and sets up every rack's session. Set-up
// failures (NewSession) abort: those are configuration errors, not
// runtime faults. The racks are set up through runner.For at
// cfg.Parallelism, so the error is the lowest failing rack's,
// "cluster: rack <name>: …", at every parallelism, and a panic inside
// a rack's set-up returns as a *runner.PanicError instead of crashing
// the caller.
func NewFleet(cfg Config) (*Fleet, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	n := len(cfg.Racks)
	site, err := battery.NewSiteBank(cfg.SiteBattery, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: site bank: %w", err)
	}
	if cfg.InitialSoC != 0 {
		if err := site.Bank().SetSoC(cfg.InitialSoC); err != nil {
			return nil, fmt.Errorf("cluster: site bank: %w", err)
		}
	}
	f := &Fleet{
		cfg: cfg, site: site, dist: NewDisturbance(n), capacityFrac: 1, ckRack: -1,
		sessions: make([]*sim.Session, n), results: make([]*sim.Result, n), ctl: make([]rackCtl, n),
		epochs: make([]SiteEpoch, 0, cfg.Epochs), mode: make([]rackMode, n), idx: make([]int, n),
		bids: make([]float64, n), weights: make([]float64, n), weightsFull: make([]float64, n),
		ghostBids: make([]float64, n), ghostW: make([]float64, n), outs: make([]stepOutcome, n),
	}
	if ck := cfg.Checkpointer; ck != nil {
		f.ckRack = ck.Rack()
	}
	err = runner.For(cfg.Parallelism, n, func(i int) error {
		rc := &cfg.Racks[i]
		name := rc.Rack.Name()
		s, err := sim.NewSession(sim.Config{
			Rack:           rc.Rack,
			Workload:       rc.Workload,
			GroupWorkloads: rc.GroupWorkloads,
			Policy:         rc.Policy,
			Solar:          cfg.Solar,
			Epochs:         cfg.Epochs,
			Bank:           site.Lease(i),
			Seed:           runner.DeriveSeed(cfg.Seed, "rack/"+strconv.Itoa(i)+"/"+name),
		})
		if err != nil {
			return fmt.Errorf("cluster: rack %s: %w", name, err)
		}
		f.sessions[i] = s
		f.results[i] = s.NewResult()
		f.ctl[i].brk = breaker.New(cfg.Breaker, defaultRackThreshold)
		f.ctl[i].downSince = -1
		f.ctl[i].health.Name = name
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Done reports whether the fleet has run its configured epochs.
func (f *Fleet) Done() bool { return len(f.epochs) >= f.cfg.Epochs }

// Step runs the next site epoch. An error (an allocator's bad weights,
// a bank fault, a rejected demand scale, a panic in the step barrier)
// stops the fleet: from then on Step returns that error again and
// touches no rack, as it returns an error once Done.
func (f *Fleet) Step() error {
	if f.err != nil {
		return f.err
	}
	if f.Done() {
		return fmt.Errorf("cluster: fleet stepped past its %d epochs", f.cfg.Epochs)
	}
	e := len(f.epochs)
	f.se = SiteEpoch{Epoch: e}
	if f.err = f.disturb(e); f.err != nil {
		return f.err
	}
	f.classify(e)
	f.bid()
	if f.err = f.split(e); f.err != nil {
		return f.err
	}
	f.priceGhosts()
	if f.err = f.stepRacks(e); f.err != nil {
		return f.err
	}
	f.bookkeep(e)
	f.settle()
	return nil
}

// Result reports the run so far. Its rack records are the fleet's own
// and grow with later steps. A rack still down is reported with an
// open quarantine episode (RejoinEpoch -1).
func (f *Fleet) Result() *FleetResult {
	out := &FleetResult{
		Allocator:     f.cfg.Allocator.Name(),
		Racks:         make([]RackResult, len(f.ctl)),
		Site:          f.epochs,
		BatteryCycles: f.site.Bank().Cycles(),
		Health:        make([]RackHealth, len(f.ctl)),
	}
	for i := range f.ctl {
		c := &f.ctl[i]
		out.Racks[i] = RackResult{Name: c.health.Name, Result: f.results[i]}
		h := c.health
		if c.brk.State() != breaker.Closed {
			q := h.Quarantines
			h.Quarantines = append(q[:len(q):len(q)],
				Quarantine{FromEpoch: c.downSince, RejoinEpoch: -1, RecoveryEpochs: -1})
		}
		out.Health[i] = h
	}
	return out
}

// disturb lets the Disturber write epoch e's effect vector and applies
// any battery aging to the shared bank.
func (f *Fleet) disturb(e int) error {
	if dr := f.cfg.Disturber; dr != nil {
		f.dist.Reset()
		dr.Disturb(e, f.dist)
	}
	if fr := f.dist.BatteryCapacityFrac; fr < f.capacityFrac {
		if err := f.site.Bank().Fade(fr / f.capacityFrac); err != nil {
			return fmt.Errorf("cluster: battery fade: %w", err)
		}
		f.capacityFrac = fr
	}
	return nil
}

// classify sorts every rack into its epoch mode, serially in rack
// order. Partitioned racks hold their last grant, reserved off the top
// of the split. After a crashed commit the checkpointed rack's
// in-memory session is notionally lost: before its next attempt it
// restores from durable state.
func (f *Fleet) classify(e int) {
	f.heldPVW, f.heldGridW = 0, 0
	for i := range f.ctl {
		c := &f.ctl[i]
		switch {
		case f.dist.Absent[i]:
			f.mode[i] = modeAbsent
			c.health.AbsentEpochs++
		case !c.brk.Allow():
			f.mode[i] = modeCooling
			c.health.QuarantinedEpochs++
			f.se.QuarantinedRacks++
		case f.dist.Down[i]:
			f.mode[i] = modeFail
		case f.dist.Partitioned[i]:
			f.mode[i] = modeHeld
			f.heldPVW += c.heldPVW
			f.heldGridW += c.heldGridW
		default:
			f.mode[i] = modeServe
		}
	}
	if r := f.ckRack; f.ckDirty && (f.mode[r] == modeServe || f.mode[r] == modeHeld) {
		f.ctl[r].bidFresh = false
		if err := f.cfg.Checkpointer.Recover(e, f.sessions[r]); err != nil {
			f.mode[r] = modeFail
		} else {
			f.ckDirty = false
			f.ctl[r].health.Recoveries++
		}
	}
}

// bid collects demand bids from the serving racks, serially in rack
// order, into a compact vector: a missing rack's absence here is what
// redistributes its share. A bid the rack's worker computed after its
// last step is used while still fresh. A rack whose bid errors fails
// the epoch.
func (f *Fleet) bid() {
	f.k = 0
	for i, s := range f.sessions {
		if f.mode[i] != modeServe {
			continue
		}
		c := &f.ctl[i]
		b, err := c.nextBidW, c.nextBidErr
		if !c.bidFresh {
			b, err = s.DemandBidW()
		}
		if err != nil {
			f.mode[i] = modeFail
			continue
		}
		c.lastBidW, c.haveBid = b, true
		f.idx[f.k], f.bids[f.k] = i, b
		f.se.BidW += b
		f.k++
	}
}

// split divides epoch e's site supply over the bidding racks and
// carves the shared bank into their leases. Held grants come off the
// top; a price spike's demand response scales the grid budget.
func (f *Fleet) split(e int) error {
	d := f.cfg.Solar.Step
	splitPV := f.cfg.Solar.At(e) - f.heldPVW
	if splitPV < 0 {
		splitPV = 0
	}
	splitGrid := f.cfg.SiteGridBudgetW*f.dist.GridBudgetScaleFrac - f.heldGridW
	if splitGrid < 0 {
		splitGrid = 0
	}
	f.supply = Supply{
		RenewableW:        splitPV,
		BatteryDischargeW: f.site.Bank().AvailableDischargeW(d),
		BatteryChargeW:    f.site.Bank().AcceptableChargeW(d),
		GridBudgetW:       splitGrid,
	}
	f.se.RenewableW = splitPV
	clear(f.weightsFull)
	if k, alloc := f.k, f.cfg.Allocator; k > 0 {
		if err := alloc.Weights(f.bids[:k], f.supply, f.weights[:k]); err != nil {
			return fmt.Errorf("cluster: allocator %s: %w", alloc.Name(), err)
		}
		var wsum float64
		for j, w := range f.weights[:k] {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("cluster: allocator %s: weight[%d] = %v", alloc.Name(), f.idx[j], w)
			}
			wsum += w
		}
		if wsum > 1+1e-9 {
			return fmt.Errorf("cluster: allocator %s: weights sum to %v > 1", alloc.Name(), wsum)
		}
		for j, i := range f.idx[:k] {
			f.weightsFull[i] = f.weights[j]
		}
	}
	if err := f.site.Carve(f.weightsFull, d); err != nil {
		return fmt.Errorf("cluster: carve: %w", err)
	}
	return nil
}

// priceGhosts prices what the missing racks would have commanded by
// re-running the allocator over the serving bids plus the missing
// racks' last-known bids. Pure reporting: the real split never sees
// these ghosts.
func (f *Fleet) priceGhosts() {
	k, g := f.k, f.k
	for i, m := range f.mode {
		if (m == modeFail || m == modeCooling) && f.ctl[i].haveBid {
			f.ghostBids[g] = f.ctl[i].lastBidW
			g++
		}
	}
	if g == k {
		return
	}
	copy(f.ghostBids[:k], f.bids[:k])
	if err := f.cfg.Allocator.Weights(f.ghostBids[:g], f.supply, f.ghostW[:g]); err == nil {
		pot := f.supply.PotentialW()
		for _, w := range f.ghostW[k:g] {
			f.se.RedistributedW += w * pot
		}
	}
}

// stepRacks steps the live racks in parallel (the per-epoch barrier).
// Task i touches only rack i's session, control block and slot: it
// sets the rack's demand scale and steps it under its allocation. A
// failed step is an outcome, not an abort; a rejected scale aborts the
// run. A served rack then commits (the checkpointed rack) and bids for
// the next epoch while its state is cache-hot.
func (f *Fleet) stepRacks(e int) error {
	err := runner.For(f.cfg.Parallelism, len(f.sessions), func(i int) error {
		o, c := &f.outs[i], &f.ctl[i]
		*o = stepOutcome{}
		c.bidFresh = false
		var a sim.Allocation
		switch f.mode[i] {
		case modeServe:
			a = sim.Allocation{
				RenewableW:  f.weightsFull[i] * f.supply.RenewableW,
				GridBudgetW: f.weightsFull[i] * f.supply.GridBudgetW,
			}
		case modeHeld:
			a = sim.Allocation{RenewableW: c.heldPVW, GridBudgetW: c.heldGridW}
		default:
			return nil
		}
		// Weather-front derate lands after the split: the allocator
		// priced clear-sky supply, so the front hits as forecast error.
		a.RenewableW *= f.dist.PVScaleFrac[i]
		s := f.sessions[i]
		if err := s.SetIntensityScale(f.dist.IntensityScale[i]); err != nil {
			return fmt.Errorf("rack %s: %w", c.health.Name, err)
		}
		if o.er, o.err = s.StepAllocated(a); o.err != nil {
			return nil
		}
		if i == f.ckRack {
			o.commitErr = f.cfg.Checkpointer.Commit(e, s)
		}
		c.nextBidW, c.nextBidErr = s.DemandBidW()
		c.bidFresh = true
		return nil
	})
	if err != nil {
		return fmt.Errorf("cluster: epoch %d: %w", e, err)
	}
	return nil
}

// bookkeep applies epoch e's outcomes serially in rack order: breaker
// transitions (a failed WAL commit of the checkpointed rack among
// them) and epoch records. Every session is then aligned to the site
// clock; skipped racks advance without consuming their noise stream.
func (f *Fleet) bookkeep(e int) {
	for i := range f.outs {
		c, o := &f.ctl[i], &f.outs[i]
		switch {
		case f.mode[i] == modeAbsent:
			// pre-startup: no bookkeeping
		case f.mode[i] == modeCooling:
			f.se.DownRacks++
		case f.mode[i] == modeFail || o.err != nil:
			c.fail(e)
			c.health.FailedEpochs++
			f.se.DownRacks++
		default:
			// Served. The physical epoch happened whether or not it
			// commits; record it.
			f.results[i].Epochs = append(f.results[i].Epochs, o.er)
			f.se.SupplyW += o.er.SupplyW
			f.se.GridW += o.er.GridW
			c.health.ServedEpochs++
			if f.mode[i] == modeServe {
				c.heldPVW = f.weightsFull[i] * f.supply.RenewableW
				c.heldGridW = f.weightsFull[i] * f.supply.GridBudgetW
			} else {
				c.health.PartitionedEpochs++
			}
			if o.commitErr != nil {
				// Served, but the daemon crashed before the epoch was
				// durable: a breaker failure, and the rack recovers
				// from the WAL before its next attempt.
				f.ckDirty = true
				c.fail(e)
				break
			}
			if c.brk.Succeed() {
				c.health.Quarantines = append(c.health.Quarantines,
					Quarantine{FromEpoch: c.downSince, RejoinEpoch: e, RecoveryEpochs: e - c.downSince})
			}
			c.downSince = -1
		}
		for f.sessions[i].Epoch() <= e {
			f.sessions[i].SkipEpoch()
		}
	}
}

// settle settles the shared bank in rack-index order and records the
// epoch's site totals.
func (f *Fleet) settle() {
	st := f.site.Settle(f.cfg.Solar.Step)
	f.se.BatteryOutW = st.DischargeW
	f.se.BatteryInW = st.ChargeRenewableW + st.ChargeGridW
	f.se.BatterySoC = f.site.Bank().SoC()
	f.epochs = append(f.epochs, f.se)
}

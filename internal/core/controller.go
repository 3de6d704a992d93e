// Package core implements the GreenHetero Controller (paper §IV, Fig. 4
// and Fig. 5): the rack-level decision maker that each scheduling epoch
//
//  1. predicts renewable generation and rack power demand (Holt double
//     exponential smoothing, §IV-B.1),
//  2. selects power sources for the epoch (Cases A/B/C, grid last),
//  3. if the (server, workload) pair is new, runs a training run and
//     populates the performance-power database (Algorithm 1 lines 4–5),
//  4. otherwise asks the configured policy for the power allocation
//     ratio (PAR) over the predicted supply (line 7),
//  5. enforces the decision: the PSC switches sources against the live
//     battery and the PAR is checked against the rack. Mapping each
//     per-server budget to a DVFS state (the SPC) is the live
//     actuator's step, enforcer.SPC.Instructions: the simulator scores
//     the continuous budget and never reads a state, and
//  6. optionally folds runtime feedback samples back into the database
//     (lines 8–10, GreenHetero's adaptive optimization).
//
// The controller is deliberately ignorant of whether its measurements
// come from a simulator or from live telemetry agents — both implement
// Prober.
package core

import (
	"errors"
	"fmt"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/enforcer"
	"greenhetero/internal/fit"
	"greenhetero/internal/policy"
	"greenhetero/internal/power"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/timeseries"
	"greenhetero/internal/workload"
)

// TrainingResult is what a training run measures for one pair.
type TrainingResult struct {
	// Samples are the profiled (power, performance) points.
	Samples []fit.Sample
	// PeakEffW is the highest power draw observed — the pair's
	// effective peak demand.
	PeakEffW float64
}

// Prober measures live servers. The simulator implements it over the
// hidden ground truth; live deployments implement it over telemetry.
type Prober interface {
	// TrainingRun profiles (spec, w) with ample power, as in Fig. 7:
	// the system runs under the ondemand governor while performance and
	// power samples are collected.
	TrainingRun(spec server.Spec, w workload.Workload) (TrainingResult, error)
}

// Config assembles a controller.
type Config struct {
	// Rack is the controller's rack (rack-level deployment, §IV-A).
	Rack *server.Rack
	// DB is the performance-power database.
	DB *profiledb.DB
	// Policy decides the PAR (Table III).
	Policy policy.Policy
	// Battery is the rack's energy storage: a rack-local *battery.Bank,
	// or a *battery.Lease carved per epoch from a shared site bank by
	// the fleet coordinator.
	Battery battery.Store
	// GridBudgetW caps grid draw (paper default 1000 W).
	GridBudgetW float64
	// Epoch is the scheduling epoch (paper: 15 minutes).
	Epoch time.Duration
	// Prober runs training measurements.
	Prober Prober
	// TryAllocation, if set, lets the Manual policy trial allocations
	// on the live system at the epoch's supply.
	TryAllocation func(supplyW float64, fractions []float64) (float64, error)
	// RenewablePredictor and DemandPredictor, when set, replace the
	// default Holt smoothers (holtAlpha, holtBeta) — e.g. with Holt
	// parameters trained by timeseries.Train, or the seasonal
	// Holt-Winters extension. The paper's framework explicitly admits
	// "any other proven prediction approaches" (§IV-B.1).
	RenewablePredictor timeseries.Predictor
	DemandPredictor    timeseries.Predictor
}

// ErrBadConfig is returned by New for incomplete configurations.
var ErrBadConfig = errors.New("core: bad config")

// Controller is the per-rack GreenHetero controller.
type Controller struct {
	cfg       Config
	renewable timeseries.Predictor
	demand    timeseries.Predictor
	psc       *enforcer.PSC
	epochIdx  int
	// recovering latches after the bank hits its DoD floor and holds
	// until the charge recovers, so the bank recharges cleanly instead
	// of trickle-cycling at the floor.
	recovering bool
	// groups caches Rack.Groups() (immutable after construction) so the
	// per-epoch paths do not re-copy the slice.
	groups []server.Group
	// keys and entries hold each group's database key for the current
	// workloads and its projection, refilled in place by one
	// ProjectionsInto per Step (and per bid): the policy, the Case A
	// demand shares and the bid all read entries.
	keys    []profiledb.Key
	entries []profiledb.Entry
	// scratch is the policy layer's reusable per-epoch working memory
	// (solver models, the warm solver cache). Owned by this controller,
	// so it is never shared across goroutines.
	scratch *policy.Scratch
	// tryFn is cfg.TryAllocation bound once, in New, to the supply that
	// allocate stores in trySupplyW, so an epoch builds no closure.
	tryFn      func(fractions []float64) (float64, error)
	trySupplyW float64
}

// holtAlpha and holtBeta are the default Holt smoothers' level and trend
// parameters.
const (
	holtAlpha = 0.5
	holtBeta  = 0.3
)

// recoverSoC is the state of charge at which a bank that drained to its
// DoD floor is considered recovered and may discharge again.
const recoverSoC = 0.75

// New validates cfg and builds a controller.
func New(cfg Config) (*Controller, error) {
	switch {
	case cfg.Rack == nil:
		return nil, fmt.Errorf("%w: nil rack", ErrBadConfig)
	case cfg.DB == nil:
		return nil, fmt.Errorf("%w: nil database", ErrBadConfig)
	case cfg.Policy == nil:
		return nil, fmt.Errorf("%w: nil policy", ErrBadConfig)
	case cfg.Battery == nil:
		return nil, fmt.Errorf("%w: nil battery", ErrBadConfig)
	case cfg.Prober == nil:
		return nil, fmt.Errorf("%w: nil prober", ErrBadConfig)
	case cfg.Epoch <= 0:
		return nil, fmt.Errorf("%w: epoch %v", ErrBadConfig, cfg.Epoch)
	case !(cfg.GridBudgetW >= 0):
		return nil, fmt.Errorf("%w: grid budget %v", ErrBadConfig, cfg.GridBudgetW)
	}
	var ren timeseries.Predictor = cfg.RenewablePredictor
	if ren == nil {
		h, err := timeseries.NewHolt(holtAlpha, holtBeta)
		if err != nil {
			return nil, fmt.Errorf("core: renewable predictor: %w", err)
		}
		ren = h
	}
	var dem timeseries.Predictor = cfg.DemandPredictor
	if dem == nil {
		h, err := timeseries.NewHolt(holtAlpha, holtBeta)
		if err != nil {
			return nil, fmt.Errorf("core: demand predictor: %w", err)
		}
		dem = h
	}
	psc, err := enforcer.NewPSC(cfg.Battery)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	groups := cfg.Rack.Groups()
	c := &Controller{
		cfg:       cfg,
		renewable: ren,
		demand:    dem,
		psc:       psc,
		groups:    groups,
		keys:      make([]profiledb.Key, len(groups)),
		entries:   make([]profiledb.Entry, len(groups)),
		scratch:   policy.NewScratch(),
	}
	if cfg.TryAllocation != nil {
		c.tryFn = func(fracs []float64) (float64, error) { return cfg.TryAllocation(c.trySupplyW, fracs) }
	}
	return c, nil
}

// Decision records everything the controller decided for one epoch.
type Decision struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Case is the supply regime the planner chose.
	Case power.Case
	// PredictedRenewableW and PredictedDemandW are the Holt forecasts
	// the decision was based on.
	PredictedRenewableW float64
	PredictedDemandW    float64
	// Plan is the executed source plan (built against the measured
	// renewable power at enforcement time).
	Plan power.Plan
	// Execution is what the PSC actually did against the live battery.
	Execution enforcer.Execution
	// SupplyW is the power actually delivered to the servers.
	SupplyW float64
	// Fractions is the PAR vector applied (one per rack group). A live
	// actuator maps it to DVFS states with
	// enforcer.SPC.Instructions(rack, Fractions, SupplyW).
	Fractions []float64
	// TrainingRun reports whether this epoch ran a training run
	// instead of a policy allocation.
	TrainingRun bool
	// Degraded reports that the epoch ran on stale (last-known-good)
	// observations from a degraded Monitor collection: the decision
	// stands, but the predictors were not fed.
	Degraded bool
	// Unconstrained reports a Case A epoch: supply covers demand, so no
	// power capping is enforced and servers run under the ondemand
	// governor at their natural draw (the paper observes that adaptive
	// allocation "has very little impact when the power supply is
	// abundant"; these are also the epochs whose measurements reveal
	// each pair's true saturation point to the database).
	Unconstrained bool
}

// Observation is one epoch's measured controller inputs, with
// provenance: Stale marks values carried over from the Monitor's
// last-known-good readings (degraded collection) instead of fresh
// samples.
type Observation struct {
	// RenewableW is the renewable power measured during this epoch.
	RenewableW float64
	// DemandW is the rack demand observed last epoch.
	DemandW float64
	// Stale marks a degraded observation. The controller still plans
	// and enforces — the rack must keep running through a partial
	// Monitor outage — but the predictors skip it: replayed values
	// would teach the smoothers a flat line nobody measured.
	Stale bool
}

// Step runs one scheduling epoch. obs.RenewableW is the renewable power
// measured during this epoch (the PSC sees it in real time; the
// *predictors* only consume it at the end of the step, so planning uses
// forecasts), and obs.DemandW is the rack demand observed last epoch.
// groupWs holds one workload per rack group: real datacenter racks
// collocate services, and the database keys per (configuration,
// workload) pair either way. Step is the epoch hot path and is under the
// allocfree contract; the genuinely-cold branches — training runs, Case
// A demand shares, the zero-supply epoch — carry reasoned suppressions
// that enumerate the per-epoch allocation budget: one budgeted
// allocation per rack epoch, the solver's Fractions.
//
// ghlint:allocfree
func (c *Controller) Step(obs Observation, groupWs []workload.Workload) (Decision, error) {
	obsRenewableW, obsDemandW := obs.RenewableW, obs.DemandW
	if !(obsRenewableW >= 0) || !(obsDemandW >= 0) {
		return Decision{}, fmt.Errorf("core: negative or NaN observation ren=%v dem=%v", obsRenewableW, obsDemandW)
	}
	if len(groupWs) != c.cfg.Rack.NumGroups() {
		return Decision{}, fmt.Errorf("core: %d workloads for %d groups", len(groupWs), c.cfg.Rack.NumGroups())
	}
	for i, w := range groupWs {
		if w.ID == "" {
			return Decision{}, fmt.Errorf("core: group %d: empty workload", i)
		}
	}
	d := Decision{Epoch: c.epochIdx, Degraded: obs.Stale}
	c.epochIdx++

	// 1. Predict. Until the smoothers are primed, fall back to the
	// most recent observation (a nowcast).
	d.PredictedRenewableW = c.forecast(c.renewable, obsRenewableW)
	d.PredictedDemandW = c.forecast(c.demand, obsDemandW)

	// 2. Fetch every group's projection, training unprofiled pairs first
	// (Algorithm 1 lines 3–5).
	trained, err := c.profile(groupWs)
	if err != nil {
		return Decision{}, err
	}
	d.TrainingRun = trained

	// 3. Source selection over the forecasts, then enforcement against
	// the measured renewable power. Prediction error therefore shifts
	// the PAR optimum (computed for the forecast supply) away from the
	// supply the servers actually receive — the cost the paper's
	// trained predictor minimizes.
	if c.cfg.Battery.AtDoD() {
		c.recovering = true
	} else if c.cfg.Battery.SoC() >= recoverSoC {
		c.recovering = false
	}
	// The bank is not mutated until psc.Apply below, so the planning and
	// enforcement selections see identical battery headroom — compute it
	// once.
	batteryDischargeW := c.cfg.Battery.AvailableDischargeW(c.cfg.Epoch)
	batteryChargeW := c.cfg.Battery.AcceptableChargeW(c.cfg.Epoch)
	planned, err := power.Select(power.Inputs{
		RenewableW:        d.PredictedRenewableW,
		DemandW:           d.PredictedDemandW,
		BatteryDischargeW: batteryDischargeW,
		BatteryChargeW:    batteryChargeW,
		GridBudgetW:       c.cfg.GridBudgetW,
		DischargeLockout:  c.recovering,
	})
	if err != nil {
		return Decision{}, fmt.Errorf("core: plan: %w", err)
	}
	d.Case = planned.Case

	// 4. Allocate the predicted supply (line 7). In Case A no capping is
	// enforced: every server runs at its natural draw, and the recorded
	// PAR is simply each group's demand share.
	predictedSupply := planned.SupplyW()
	switch {
	case planned.Case == power.CaseA:
		d.Unconstrained = true
		d.Fractions = c.demandShares()
	case predictedSupply > 0:
		fractions, err := c.allocate(predictedSupply)
		if err != nil {
			return Decision{}, err
		}
		d.Fractions = fractions
	default:
		d.Fractions = make([]float64, c.cfg.Rack.NumGroups()) //lint:ghlint ignore allocfree zero-supply epochs are dark-rack cold paths
	}

	// 5. Enforce with the measured renewable power.
	execPlan, err := power.Select(power.Inputs{
		RenewableW:        obsRenewableW,
		DemandW:           d.PredictedDemandW,
		BatteryDischargeW: batteryDischargeW,
		BatteryChargeW:    batteryChargeW,
		GridBudgetW:       c.cfg.GridBudgetW,
		DischargeLockout:  c.recovering,
	})
	if err != nil {
		return Decision{}, fmt.Errorf("core: exec plan: %w", err)
	}
	d.Plan = execPlan
	exec, err := c.psc.Apply(execPlan, c.cfg.Epoch)
	if err != nil {
		return Decision{}, fmt.Errorf("core: enforce: %w", err)
	}
	d.Execution = exec
	d.SupplyW = exec.SupplyW

	if d.SupplyW > 0 {
		if err := enforcer.ValidatePAR(d.Fractions, len(c.groups)); err != nil {
			return Decision{}, fmt.Errorf("core: enforce: %w", err)
		}
	}

	// 6. Feed the predictors (observations become history). Stale
	// observations are excluded: they are replays, not measurements.
	if !obs.Stale {
		c.renewable.Observe(obsRenewableW)
		c.demand.Observe(obsDemandW)
	}
	return d, nil
}

// forecast returns the smoother's one-step forecast, or the fallback
// before priming. Negative forecasts (a falling trend extrapolated past
// zero) clamp to zero.
//
// ghlint:allocfree
// ghlint:units fallback=W result=W
func (c *Controller) forecast(h timeseries.Predictor, fallback float64) float64 {
	v, err := h.Forecast()
	if err != nil {
		return fallback
	}
	if v < 0 {
		return 0
	}
	return v
}

// setKeys keys each group to its workload in c.keys.
//
// ghlint:allocfree
func (c *Controller) setKeys(groupWs []workload.Workload) {
	for i := range c.groups {
		c.keys[i] = profiledb.Key{ServerID: c.groups[i].Spec.ID, WorkloadID: groupWs[i].ID}
	}
}

// profile fills c.entries with every group's projection for groupWs.
// A profiled rack takes one ProjectionsInto; a miss runs a training
// run for that pair and refetches from it, so pairs train in group
// order. Returns whether any training ran this epoch.
//
// ghlint:allocfree
func (c *Controller) profile(groupWs []workload.Workload) (bool, error) {
	c.setKeys(groupWs)
	trained := false
	for start := 0; ; {
		n, err := c.cfg.DB.ProjectionsInto(c.keys[start:], c.entries[start:])
		if err == nil {
			return trained, nil
		}
		start += n
		if err := c.train(start, groupWs[start]); err != nil { //lint:ghlint ignore allocfree training is the cold profiling path, once per new (server, workload) pair
			return trained, err
		}
		trained = true
	}
}

// train runs a training run for group i under workload w and stores it
// in the database.
func (c *Controller) train(i int, w workload.Workload) error {
	g := &c.groups[i]
	k := c.keys[i]
	res, err := c.cfg.Prober.TrainingRun(g.Spec, w)
	if err != nil {
		return fmt.Errorf("core: training run %s: %w", k, err)
	}
	peakEff := res.PeakEffW
	if peakEff <= g.Spec.IdleW {
		peakEff = g.Spec.PeakW // defensive: degenerate measurement
	}
	if err := c.cfg.DB.AddTrainingRun(k, g.Spec.IdleW, peakEff, res.Samples); err != nil {
		return fmt.Errorf("core: store training run %s: %w", k, err)
	}
	return nil
}

// demandShares returns each group's share of the rack's believed demand
// at the projections' effective peaks. Step calls it after profile, so
// every group has an entry.
//
// ghlint:allocfree
func (c *Controller) demandShares() []float64 {
	demands := make([]float64, len(c.groups)) //lint:ghlint ignore allocfree the returned share vector is the Case A epoch's one caller-owned allocation (Decision.Fractions)
	var total float64
	for i := range c.groups {
		demands[i] = float64(c.groups[i].Count) * c.entries[i].PeakEffW
		total += demands[i]
	}
	if total == 0 {
		clear(demands)
		return demands
	}
	for i := range demands {
		demands[i] /= total
	}
	return demands
}

// allocate asks the policy for the PAR vector over the projections
// profile fetched.
//
// ghlint:allocfree
func (c *Controller) allocate(supplyW float64) ([]float64, error) {
	c.trySupplyW = supplyW
	ctx := policy.Context{
		Groups:        c.groups,
		SupplyW:       supplyW,
		Entries:       c.entries,
		Scratch:       c.scratch,
		TryAllocation: c.tryFn,
	}
	fracs, err := c.cfg.Policy.Allocate(ctx) //lint:ghlint ignore allocfree policy dispatch: Solver.Allocate is verified; the baseline policies allocate by design
	if err != nil {
		return nil, fmt.Errorf("core: allocate: %w", err)
	}
	return fracs, nil
}

// Feedback folds one epoch's measured per-group samples back into the
// database when the policy is adaptive (Algorithm 1 lines 8–10).
// groupWs and groupSamples hold one entry per group, in group order; a
// group with no samples is skipped. Groups are folded in order, so the
// first failing group names the error.
func (c *Controller) Feedback(groupWs []workload.Workload, groupSamples [][]fit.Sample) error {
	if !c.cfg.Policy.UpdatesDB() {
		return nil
	}
	if len(groupWs) != len(c.groups) {
		return fmt.Errorf("core: feedback: %d workloads for %d groups", len(groupWs), len(c.groups))
	}
	if len(groupSamples) != len(c.groups) {
		return fmt.Errorf("core: feedback: %d sample sets for %d groups", len(groupSamples), len(c.groups))
	}
	for idx, samples := range groupSamples {
		if len(samples) == 0 {
			continue
		}
		k := profiledb.Key{ServerID: c.groups[idx].Spec.ID, WorkloadID: groupWs[idx].ID}
		if err := c.cfg.DB.AddFeedback(k, samples...); err != nil {
			// A degenerate refit must not abort the run; the previous
			// projection remains in force.
			if errors.Is(err, profiledb.ErrFit) {
				continue
			}
			return fmt.Errorf("core: feedback: %w", err)
		}
	}
	return nil
}

// SetGridBudgetW replaces the controller's grid budget. The fleet
// coordinator calls it once per epoch with the rack's share of the site
// budget before stepping the rack.
//
// ghlint:allocfree
// ghlint:units w=W
func (c *Controller) SetGridBudgetW(w float64) error {
	if !(w >= 0) {
		return fmt.Errorf("%w: grid budget %v", ErrBadConfig, w)
	}
	c.cfg.GridBudgetW = w
	return nil
}

// BelievedDemandW is the rack's demand bid: the power it believes its
// groups draw at effective peak, priced from the database's cached
// projections (nameplate peaks for unprofiled pairs). It reads only
// controller knowledge — never ground truth — so a site allocator using
// it stays inside the paper's prediction discipline. It refetches the
// projections into the buffer Step uses: the bid follows the epoch's
// feedback, which may have widened a projection's peak.
//
// ghlint:allocfree
func (c *Controller) BelievedDemandW(groupWs []workload.Workload) (float64, error) {
	if len(groupWs) != len(c.groups) {
		return 0, fmt.Errorf("core: bid: %d workloads for %d groups", len(groupWs), len(c.groups))
	}
	c.setKeys(groupWs)
	var total float64
	for start := 0; start < len(c.groups); {
		n, err := c.cfg.DB.ProjectionsInto(c.keys[start:], c.entries[start:])
		for i := start; i < start+n; i++ {
			total += float64(c.groups[i].Count) * c.entries[i].PeakEffW
		}
		if err == nil {
			break
		}
		miss := &c.groups[start+n]
		total += float64(miss.Count) * miss.Spec.PeakW
		start += n + 1
	}
	return total, nil
}

// Package sim is the experimental testbed: it binds the solar trace, the
// battery bank, the grid feed, the heterogeneous rack, and the hidden
// workload response surfaces into an epoch-driven simulation, and runs
// the GreenHetero controller (or a baseline policy) against them.
//
// The simulator plays the role of the paper's physical prototype
// (§V-A.2): it owns the ground truth the controller can only observe
// through noisy measurements, evaluates each epoch's allocation on that
// truth, and records performance, EPU, and power flows per epoch.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/core"
	"greenhetero/internal/fit"
	"greenhetero/internal/metrics"
	"greenhetero/internal/policy"
	"greenhetero/internal/power"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/runner"
	"greenhetero/internal/server"
	"greenhetero/internal/timeseries"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

// IntensityFunc maps an epoch index to a load intensity in (0, 1].
type IntensityFunc func(epoch int) float64

// DiurnalIntensity is the default demand pattern: the typical datacenter
// rack-power shape of Fig. 6 — a business-hours hump over a constant
// night-time floor. epochsPerDay is derived from the epoch length.
func DiurnalIntensity(epochsPerDay int) IntensityFunc {
	return func(epoch int) float64 {
		if epochsPerDay <= 0 {
			return 1
		}
		hour := 24 * float64(epoch%epochsPerDay) / float64(epochsPerDay)
		base := 0.60
		if hour >= 7 && hour <= 21 {
			base += 0.35 * math.Sin(math.Pi*(hour-7)/14)
		}
		// Small deterministic ripple so consecutive epochs differ.
		base += 0.02 * math.Sin(float64(epoch))
		if base > 1 {
			base = 1
		}
		if base < 0.05 {
			base = 0.05
		}
		return base
	}
}

// ConstantIntensity runs the workload flat out (used by the PAR-sweep
// case study, which fixes the power budget instead).
func ConstantIntensity(i float64) IntensityFunc {
	return func(int) float64 { return i }
}

// Config describes one simulation run.
type Config struct {
	// Rack is the heterogeneous rack under test.
	Rack *server.Rack
	// Workload runs on every server (the paper evaluates one workload
	// at a time per rack).
	Workload workload.Workload
	// GroupWorkloads, when non-nil, assigns each rack group its own
	// workload (a mixed rack, one entry per group); Workload is then
	// ignored. Real racks collocate services, and the database keys per
	// (configuration, workload) pair either way.
	GroupWorkloads []workload.Workload
	// Policy allocates power (Table III).
	Policy policy.Policy
	// Solar is the renewable generation trace; one sample per epoch,
	// starting at epoch 0.
	Solar *trace.Trace
	// Epochs is the number of scheduling epochs to simulate.
	Epochs int
	// GridBudgetW caps grid draw (paper default 1000 W).
	GridBudgetW float64
	// Battery configures the rack bank; zero value means the paper's
	// default 12 kWh/40 % DoD/80 % bank.
	Battery battery.Config
	// Bank, when non-nil, is an externally owned battery store the
	// session drives instead of building its own bank — the fleet
	// coordinator hands each rack a per-epoch lease of the shared site
	// bank. Battery and InitialSoC are then ignored, Session.Bank()
	// returns nil, and exported state carries no battery section (the
	// store's state lives with its owner).
	Bank battery.Store
	// Intensity is the demand pattern; nil means DiurnalIntensity.
	Intensity IntensityFunc
	// Seed drives measurement noise (same seed → same observations).
	Seed int64
	// TrainingNoise multiplies the workload's measurement noise during
	// training runs (default 3): the paper notes "the information from
	// the profiling data is limited in the training run and can be less
	// accurate" (§IV-B.5) — 2-minute windows are much noisier than
	// epoch-long runtime feedback. This is what makes GreenHetero's
	// adaptive refits beat GreenHetero-a's frozen projections.
	TrainingNoise float64
	// InitialSoC sets the battery's starting state of charge in [0, 1]
	// (clamped to the usable band). Zero means full (the paper
	// initializes the battery to its maximal state, §V-B.1); use the
	// DoD floor to study the drained-battery regime of Figs. 9/10/12.
	InitialSoC float64
	// PredictorFactory, when set, builds the controller's predictors
	// (called twice: renewable, then demand) in place of the default
	// Holt smoothers — e.g. the predictor ablation's naive, trained-Holt
	// and seasonal Holt-Winters variants.
	PredictorFactory func() timeseries.Predictor
}

// profileSamples is the number of training-run samples: the paper
// profiles every 2 minutes for 10 minutes (§IV-B.5).
const profileSamples = 5

// feedbackSamples is how many runtime samples feed the database per
// group and epoch under adaptive policies.
const feedbackSamples = 2

// ErrBadConfig is returned by Run for invalid configurations.
var ErrBadConfig = errors.New("sim: bad config")

func (c *Config) withDefaults() (Config, error) {
	out := *c
	switch {
	case out.Rack == nil:
		return out, fmt.Errorf("%w: nil rack", ErrBadConfig)
	case out.Policy == nil:
		return out, fmt.Errorf("%w: nil policy", ErrBadConfig)
	case out.Solar == nil:
		return out, fmt.Errorf("%w: nil solar trace", ErrBadConfig)
	case out.Epochs < 1:
		return out, fmt.Errorf("%w: epochs %d", ErrBadConfig, out.Epochs)
	case out.GridBudgetW < 0 || math.IsNaN(out.GridBudgetW):
		return out, fmt.Errorf("%w: grid budget %v", ErrBadConfig, out.GridBudgetW)
	}
	if err := out.Solar.Validate(); err != nil {
		return out, fmt.Errorf("%w: solar %w", ErrBadConfig, err)
	}
	if out.GroupWorkloads == nil {
		if out.Workload.ID == "" {
			return out, fmt.Errorf("%w: empty workload", ErrBadConfig)
		}
		out.GroupWorkloads = make([]workload.Workload, out.Rack.NumGroups())
		for i := range out.GroupWorkloads {
			out.GroupWorkloads[i] = out.Workload
		}
	}
	if len(out.GroupWorkloads) != out.Rack.NumGroups() {
		return out, fmt.Errorf("%w: %d group workloads for %d groups", ErrBadConfig, len(out.GroupWorkloads), out.Rack.NumGroups())
	}
	for i, w := range out.GroupWorkloads {
		if w.ID == "" {
			return out, fmt.Errorf("%w: group %d empty workload", ErrBadConfig, i)
		}
	}
	if out.Battery == (battery.Config{}) {
		out.Battery = battery.DefaultConfig()
	}
	if out.Intensity == nil {
		perDay := int(24 * time.Hour / out.Solar.Step)
		out.Intensity = DiurnalIntensity(perDay)
	}
	if out.TrainingNoise == 0 {
		out.TrainingNoise = 3
	}
	if out.InitialSoC == 0 {
		out.InitialSoC = 1
	}
	if !(out.InitialSoC >= 0 && out.InitialSoC <= 1) {
		return out, fmt.Errorf("%w: initial SoC %v", ErrBadConfig, out.InitialSoC)
	}
	return out, nil
}

// EpochResult records one epoch's outcome on the ground truth.
type EpochResult struct {
	Epoch       int
	Case        power.Case
	Intensity   float64
	RenewableW  float64
	DemandW     float64
	SupplyW     float64
	GridW       float64
	BatteryOutW float64
	BatteryInW  float64
	BatterySoC  float64
	Fractions   []float64
	Perf        float64
	UsedW       float64
	EPU         float64
	TrainingRun bool
}

// Result is a full run's record.
type Result struct {
	Policy   string
	Workload string
	Epochs   []EpochResult
	// BatteryCycles is how many discharge-to-DoD cycles the bank
	// completed over the run (lifetime accounting, §V-B.3).
	BatteryCycles int

	// epochHours is the epoch length in hours, for energy aggregation.
	epochHours float64
}

// GridSeriesW extracts the per-epoch grid draw, for cost accounting.
func (r *Result) GridSeriesW() []float64 {
	out := make([]float64, len(r.Epochs))
	for i, e := range r.Epochs {
		out[i] = e.GridW
	}
	return out
}

// EpochHours reports the epoch length in hours.
func (r *Result) EpochHours() float64 { return r.epochHours }

// MeanPerf averages throughput over all epochs.
func (r *Result) MeanPerf() float64 {
	return r.mean(func(e EpochResult) float64 { return e.Perf }, nil)
}

// MeanEPU averages EPU over epochs with nonzero supply.
func (r *Result) MeanEPU() float64 {
	return r.mean(func(e EpochResult) float64 { return e.EPU },
		func(e EpochResult) bool { return e.SupplyW > 0 })
}

// MeanPerfScarce averages throughput over the scarcity epochs (Cases B
// and C) — the regime the paper's Figs. 9/10 analyze.
func (r *Result) MeanPerfScarce() float64 {
	return r.mean(func(e EpochResult) float64 { return e.Perf },
		func(e EpochResult) bool { return e.Case != power.CaseA })
}

// MeanEPUScarce averages EPU over scarcity epochs with nonzero supply.
func (r *Result) MeanEPUScarce() float64 {
	return r.mean(func(e EpochResult) float64 { return e.EPU },
		func(e EpochResult) bool { return e.Case != power.CaseA && e.SupplyW > 0 })
}

// MeanPAR averages the first group's power allocation ratio over epochs
// where power was allocated (Fig. 8's "average PAR ≈ 58 %").
func (r *Result) MeanPAR() float64 {
	return r.mean(func(e EpochResult) float64 {
		var sum float64
		for _, f := range e.Fractions {
			sum += f
		}
		if sum == 0 {
			return 0
		}
		return e.Fractions[0] / sum
	}, func(e EpochResult) bool {
		for _, f := range e.Fractions {
			if f > 0 {
				return true
			}
		}
		return false
	})
}

// GridEnergyWh totals grid energy drawn.
func (r *Result) GridEnergyWh() float64 {
	var wh float64
	for _, e := range r.Epochs {
		wh += e.GridW * hoursPerEpoch(r)
	}
	return wh
}

func hoursPerEpoch(r *Result) float64 { return r.epochHours }

func (r *Result) mean(f func(EpochResult) float64, keep func(EpochResult) bool) float64 {
	var sum float64
	var n int
	for _, e := range r.Epochs {
		if keep != nil && !keep(e) {
			continue
		}
		sum += f(e)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// prober implements core.Prober over the hidden ground truth.
type prober struct {
	load          workload.Load
	trainingNoise float64
	rng           *rand.Rand
}

// TrainingRun profiles the pair across its power band at the current
// intensity, as the ondemand governor sweeps with load (Fig. 7).
func (p *prober) TrainingRun(spec server.Spec, w workload.Workload) (core.TrainingResult, error) {
	pl := workload.NewPlant(spec, w)
	res := core.TrainingResult{Samples: pl.Sweep(p.load, profileSamples, p.trainingNoise, p.rng)}
	for _, s := range res.Samples {
		if s.X > res.PeakEffW {
			res.PeakEffW = s.X
		}
	}
	return res, nil
}

// Session is a stepwise simulation: one call to Step advances one
// scheduling epoch. Run wraps it for batch execution; the daemon drives
// it on a wall-clock ticker. Not safe for concurrent use — callers
// serialize access (the daemon holds a mutex).
type Session struct {
	cfg Config
	// db is the session's own performance-power database.
	db *profiledb.DB
	// src is rng's underlying source; its draw counter is what lets
	// ExportState pin — and RestoreState reproduce — the exact RNG
	// stream position.
	src *countingSource
	rng *rand.Rand
	// bank is the session-owned rack bank; nil when cfg.Bank supplied an
	// external store. store is whichever of the two the controller sees.
	bank   *battery.Bank
	store  battery.Store
	pb     *prober
	groups []server.Group
	// plants[i] is group i's response surface under its workload.
	plants []workload.Plant
	ctrl   *core.Controller
	// rackID and traceID fingerprint exported state (see identify).
	rackID, traceID string

	epoch      int
	prevDemand float64
	// intensityScale multiplies the configured intensity pattern (flash
	// crowds under chaos); 1 leaves the pattern bit-untouched.
	intensityScale float64

	// fbBufs is Step's reusable feedback staging, one slice per group:
	// the database copies samples out inside Feedback, so the slices are
	// safe to recycle every epoch instead of reallocating.
	fbBufs [][]fit.Sample
}

// NewSession validates cfg and prepares a stepwise simulation.
func NewSession(cfg Config) (*Session, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	src := newCountingSource(c.Seed)
	rng := rand.New(src)
	var bank *battery.Bank
	store := c.Bank
	if store == nil {
		bank, err = battery.New(c.Battery)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := bank.SetSoC(c.InitialSoC); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		store = bank
	}
	s := &Session{
		cfg:            c,
		db:             profiledb.New(),
		src:            src,
		rng:            rng,
		bank:           bank,
		store:          store,
		groups:         c.Rack.Groups(),
		intensityScale: 1,
	}
	s.rackID, s.traceID = identify(c.Rack, c.Solar)
	s.plants = make([]workload.Plant, len(s.groups))
	for i := range s.groups {
		s.plants[i] = workload.NewPlant(s.groups[i].Spec, c.GroupWorkloads[i])
	}
	s.pb = &prober{
		load:          workload.NewLoad(c.Intensity(0)),
		trainingNoise: c.TrainingNoise,
		rng:           rng,
	}
	// The Manual policy trials allocations on the live (simulated)
	// system at the current intensity.
	tryAllocation := func(supplyW float64, fracs []float64) (float64, error) {
		return truePerf(s.groups, s.plants, supplyW, fracs, s.pb.load), nil
	}
	coreCfg := core.Config{
		Rack:          c.Rack,
		DB:            s.db,
		Policy:        c.Policy,
		Battery:       store,
		GridBudgetW:   c.GridBudgetW,
		Epoch:         c.Solar.Step,
		Prober:        s.pb,
		TryAllocation: tryAllocation,
	}
	if c.PredictorFactory != nil {
		coreCfg.RenewablePredictor = c.PredictorFactory()
		coreCfg.DemandPredictor = c.PredictorFactory()
	}
	ctrl, err := core.New(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.ctrl = ctrl
	s.prevDemand = rackDemandW(s.groups, s.plants, s.pb.load)
	return s, nil
}

// Epoch reports the next epoch index Step will run.
func (s *Session) Epoch() int { return s.epoch }

// Done reports whether the configured epoch budget is exhausted. A
// session may be stepped past Done (the trace end value is held), which
// is what a long-running daemon does.
func (s *Session) Done() bool { return s.epoch >= s.cfg.Epochs }

// Bank exposes the live battery (read-only use expected). It is nil
// when the session runs on an external store (Config.Bank).
func (s *Session) Bank() *battery.Bank { return s.bank }

// DB exposes the session's performance-power database.
func (s *Session) DB() *profiledb.DB { return s.db }

// Policy reports the active policy name.
func (s *Session) Policy() string { return s.cfg.Policy.Name() }

// WorkloadLabel reports the run's workload label.
func (s *Session) WorkloadLabel() string { return workloadLabel(s.cfg.GroupWorkloads) }

// EpochHours reports the epoch length in hours.
func (s *Session) EpochHours() float64 { return s.cfg.Solar.Step.Hours() }

// Step advances one scheduling epoch and returns its outcome. The
// renewable power comes from the session's own solar trace.
func (s *Session) Step() (EpochResult, error) {
	return s.step(s.cfg.Solar.At(s.epoch))
}

// SkipEpoch advances the epoch counter without simulating anything — a
// crashed or quarantined rack stays aligned with the site clock while
// it is down, so its epoch records resume at the right index when it
// rejoins. Nothing else changes: no measurement noise is drawn, no
// power flows, and the controller's projections simply go stale (which
// is exactly what a dead rack's controller does).
func (s *Session) SkipEpoch() { s.epoch++ }

// SetIntensityScale scales the configured demand intensity pattern from
// the next step on — the fleet chaos engine's flash-crowd hook. Scaled
// intensity is clamped to the pattern's (0.05, 1] band; a scale of
// exactly 1 leaves every epoch bit-identical to an unscaled run.
func (s *Session) SetIntensityScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return fmt.Errorf("%w: intensity scale %v", ErrBadConfig, scale)
	}
	s.intensityScale = scale
	return nil
}

// Allocation is one rack's per-epoch share of site-level resources, as
// split by a fleet allocator.
type Allocation struct {
	// RenewableW is the rack's slice of the shared site PV feed.
	RenewableW float64
	// GridBudgetW is the rack's slice of the site grid budget.
	GridBudgetW float64
}

// StepAllocated advances one scheduling epoch under a fleet
// coordinator's allocation: the rack sees the allocated renewable power
// instead of its own trace and the allocated grid budget instead of the
// configured one. The battery share arrives separately, through the
// lease installed as Config.Bank.
func (s *Session) StepAllocated(a Allocation) (EpochResult, error) {
	if a.RenewableW < 0 || a.GridBudgetW < 0 {
		return EpochResult{}, fmt.Errorf("%w: allocation %+v", ErrBadConfig, a)
	}
	if err := s.ctrl.SetGridBudgetW(a.GridBudgetW); err != nil {
		return EpochResult{}, fmt.Errorf("sim: epoch %d: %w", s.epoch, err)
	}
	return s.step(a.RenewableW)
}

// DemandBidW is the rack's demand bid for the next epoch: believed peak
// demand priced from the controller's cached projections (controller
// knowledge only — the fleet allocator must not see ground truth).
func (s *Session) DemandBidW() (float64, error) {
	return s.ctrl.BelievedDemandW(s.cfg.GroupWorkloads)
}

// step runs one epoch against the given renewable power.
func (s *Session) step(renewable float64) (EpochResult, error) {
	c := &s.cfg
	e := s.epoch
	s.epoch++
	intensity := c.Intensity(e)
	if s.intensityScale != 1 {
		intensity *= s.intensityScale
		if intensity > 1 {
			intensity = 1
		}
		if intensity < 0.05 {
			intensity = 0.05
		}
	}
	load := workload.NewLoad(intensity)
	s.pb.load = load

	dec, err := s.ctrl.Step(core.Observation{RenewableW: renewable, DemandW: s.prevDemand}, c.GroupWorkloads)
	if err != nil {
		return EpochResult{}, fmt.Errorf("sim: epoch %d: %w", e, err)
	}

	// Evaluate the allocation on the hidden truth.
	er := EpochResult{
		Epoch:       e,
		Case:        dec.Case,
		Intensity:   intensity,
		RenewableW:  renewable,
		DemandW:     rackDemandW(s.groups, s.plants, load),
		SupplyW:     dec.SupplyW,
		GridW:       dec.Execution.GridW,
		BatteryOutW: dec.Execution.BatteryToLoadW,
		BatteryInW:  dec.Execution.BatteryChargedW,
		BatterySoC:  s.store.SoC(),
		Fractions:   dec.Fractions,
		TrainingRun: dec.TrainingRun,
	}
	if s.fbBufs == nil {
		s.fbBufs = make([][]fit.Sample, len(s.groups))
	}
	for i := range s.groups {
		count := float64(s.groups[i].Count)
		pl := &s.plants[i]
		// In a Case A epoch servers are uncapped and draw their
		// natural (saturation) power; under scarcity the SPC caps
		// each server at its PAR share.
		perServer := 0.0
		switch {
		case dec.Unconstrained:
			perServer = pl.PeakEffW(load)
		case dec.SupplyW > 0:
			perServer = dec.Fractions[i] * dec.SupplyW / count
		}
		usedPerServer := pl.UsedPowerW(perServer, load)
		// The truth at the budget is also the truth at the metered
		// draw: the draw falls short of the budget only where it is
		// capped at the effective peak, past which the surface is flat.
		perf := pl.Perf(perServer, load)
		er.Perf += count * perf
		er.UsedW += count * usedPerServer
		// The power meter reads the server's actual draw (used
		// power), not the budget it was granted: in abundant
		// epochs that is the workload's true saturation point,
		// which is how the database's validity range tracks load.
		fs := s.fbBufs[i][:0]
		if usedPerServer > 0 {
			for smp := 0; smp < feedbackSamples; smp++ {
				fs = append(fs, workload.Measure(usedPerServer, perf, 1, pl.Noise(), s.rng))
			}
		}
		s.fbBufs[i] = fs
	}
	er.EPU = metrics.EPU(er.UsedW, er.SupplyW)

	if err := s.ctrl.Feedback(c.GroupWorkloads, s.fbBufs); err != nil {
		return EpochResult{}, fmt.Errorf("sim: epoch %d feedback: %w", e, err)
	}
	s.prevDemand = er.DemandW
	return er, nil
}

// NewResult returns an empty Result primed with the session's labels
// and epoch length, for callers that drive Step themselves — the fleet
// coordinator appends each rack's epoch records into one of these.
func (s *Session) NewResult() *Result {
	return &Result{
		Policy:     s.Policy(),
		Workload:   s.WorkloadLabel(),
		Epochs:     make([]EpochResult, 0, s.cfg.Epochs),
		epochHours: s.EpochHours(),
	}
}

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	res := s.NewResult()
	for !s.Done() {
		er, err := s.Step()
		if err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, er)
	}
	if s.bank != nil {
		res.BatteryCycles = s.bank.Cycles()
	}
	return res, nil
}

// truePerf evaluates a PAR vector on the hidden truth.
func truePerf(groups []server.Group, plants []workload.Plant, supplyW float64, fracs []float64, l workload.Load) float64 {
	var total float64
	for i := range groups {
		if i >= len(fracs) {
			break
		}
		count := float64(groups[i].Count)
		total += count * plants[i].Perf(fracs[i]*supplyW/count, l)
	}
	return total
}

// rackDemandW is the rack's desired power under load l: what an
// ondemand-governed rack would draw with unconstrained supply.
func rackDemandW(groups []server.Group, plants []workload.Plant, l workload.Load) float64 {
	var d float64
	for i := range groups {
		d += float64(groups[i].Count) * plants[i].PeakEffW(l)
	}
	return d
}

// workloadLabel labels a run: the single workload id, or a mixed list.
func workloadLabel(groupWs []workload.Workload) string {
	same := true
	for _, w := range groupWs[1:] {
		if w.ID != groupWs[0].ID {
			same = false
			break
		}
	}
	if same {
		return groupWs[0].ID
	}
	label := "mixed(" + groupWs[0].ID
	for _, w := range groupWs[1:] {
		label += "+" + w.ID
	}
	return label + ")"
}

// Compare runs the same scenario under several policies, with identical
// traces, intensity, and noise seeds, and returns results keyed by policy
// name (the shape of the paper's Figs. 9/10/13/14 comparisons). Policies
// run concurrently, one worker per CPU; see CompareParallel.
func Compare(cfg Config, policies []policy.Policy) (map[string]*Result, error) {
	return CompareParallel(cfg, policies, 0)
}

// CompareParallel is Compare with an explicit parallelism knob:
// 0 means one worker per CPU (runtime.GOMAXPROCS(0)), 1 is the exact
// legacy serial loop. Results are bit-identical at every level: each
// policy's run owns its RNG (seeded from cfg.Seed), its fresh database,
// and its policy instance, and shares only the immutable rack and trace.
// Every policy deliberately sees the same noise seed — the paper's
// comparisons are paired, with identical observations across policies —
// so determinism comes from per-run RNG construction, not seed
// splitting (use runner.DeriveSeed where independent streams are
// wanted, as the cluster package does).
func CompareParallel(cfg Config, policies []policy.Policy, parallelism int) (map[string]*Result, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("%w: no policies", ErrBadConfig)
	}
	results, err := runner.Map(parallelism, len(policies), func(i int) (*Result, error) {
		p := policies[i]
		c := cfg
		c.Policy = p
		r, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("sim: policy %s: %w", p.Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(policies))
	for i, p := range policies {
		out[p.Name()] = results[i]
	}
	return out, nil
}

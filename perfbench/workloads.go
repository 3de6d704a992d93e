package main

import (
	"fmt"
	"time"

	"greenhetero/internal/chaos"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
	"greenhetero/internal/power"
	"greenhetero/internal/runner"
	"greenhetero/internal/scenario"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

// epochsPerDay is the number of 15-minute epochs in a day.
const epochsPerDay = 96

// pass is one build-and-run of a workload.
type pass struct {
	setupNs    int64   // workload build start → first epoch
	epochNs    []int64 // host time of each rack epoch (rack) or site epoch (fleet); dropped once pooled
	epochs     int     // len(epochNs)
	stepNs     int64   // sum of epochNs: the pass's host time after set-up
	rackEpochs int     // simulated rack·epochs
	digest     string  // sim outputs, bit for bit
	sim        simOut

	// Traced passes only.
	allocNs    []int64 // every policy.Allocate call
	stepSelfNs []int64 // single rack: each Step minus its Allocate calls
	probe      *fleetProbe
	spanID     int   // the pass span
	clusterNs  int64 // cluster.Run entry → first epoch boundary
	scenarioNs int64
	solarNs    int64
	engineNs   int64
}

// simOut holds the modelled datacenter's outputs for one pass; they
// are deterministic for a seed.
type simOut struct {
	epu, perf, gridKWh, servedFrac float64

	served, trainingRuns, caseA, caseB, caseC  int
	downRackEpochs, quarantines, batteryCycles int
	redistributedKWh                           float64
}

// workloadRunner is one benchmark workload.
type workloadRunner interface {
	// reference runs the workload once through its plain public entry
	// point (sim.Run, cluster.Run, chaos.Run) and returns the digest
	// every probed pass must reproduce.
	reference() (string, error)
	// run builds and runs one probed pass, charging failed output
	// checks to c. tr is nil for an untraced pass.
	run(clk clock, tr *tracer, c *checker) (*pass, error)
	// epochQuantile is the percentile over passes that gives each epoch
	// of the schedule its host time.
	epochQuantile() float64
}

// settings sizes a workload.
type settings struct {
	seed     int64
	epochs   int // per pass; 0 means the workload's default (the storm always runs its schedule)
	workers  int
	scenario string // path of the committed storm-1000 scenario
}

func newWorkload(name string, s settings) (workloadRunner, error) {
	switch name {
	case "rack-year-comb5":
		if s.epochs == 0 {
			s.epochs = 365 * epochsPerDay
		}
		return &rackYear{s}, nil
	case "fleet-1000":
		if s.epochs == 0 {
			s.epochs = 48
		}
		return &fleetHealthy{s}, nil
	case "storm-1000":
		return &storm{s}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rackYear is one Comb5 rack (E5-2620 + E5-2603 + i5-4460, five servers
// each) under adaptive GreenHetero running SPECjbb on the High solar
// trace, stepped epoch by epoch through sim.Session.
type rackYear struct{ settings }

const (
	rackPeakW       = 2200
	rackGridBudgetW = 1000
	// rackSolarSeed fixes the year's weather, as the storm scenario
	// fixes its own: the workload seed drives measurement noise only,
	// so seeds do not change the mix of cheap and costly epochs.
	rackSolarSeed = 1
)

func (w *rackYear) solarConfig() solar.Config {
	return solar.Config{
		Profile:   solar.High,
		PeakWatts: rackPeakW,
		Days:      (w.epochs + epochsPerDay - 1) / epochsPerDay,
		Step:      15 * time.Minute,
		Seed:      rackSolarSeed,
	}
}

// config builds the session configuration around a solar trace.
func (w *rackYear) config(tr *trace.Trace) (sim.Config, error) {
	var groups []server.Group
	for _, id := range []string{server.XeonE52620, server.XeonE52603, server.CoreI54460} {
		spec, err := server.Lookup(id)
		if err != nil {
			return sim.Config{}, err
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	rack, err := server.NewRack("comb5", groups...)
	if err != nil {
		return sim.Config{}, err
	}
	wl, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Rack:        rack,
		Workload:    wl,
		Policy:      policy.Solver{Adaptive: true},
		Solar:       tr,
		Epochs:      w.epochs,
		GridBudgetW: rackGridBudgetW,
		Seed:        w.seed,
	}, nil
}

// epochQuantile is the fastest pass. A rack epoch lasts 25–50 us, so it
// runs whole in either a fast or a slow spell of the shared host, about
// 1.5× apart, and the share of slow spells changes from run to run.
// Over sets of five and six runs, the p40–p60 mean of per-epoch
// medians spread up to 0.29 and that of per-epoch p10s up to 0.07; the
// fastest pass held 0.03–0.09, also under an on/off CPU hog beside the
// benchmark. A slow spell that covers a whole run still shows: the
// costliest tenth of epochs then never runs fast, and the tail reads
// about 1.5× higher.
func (w *rackYear) epochQuantile() float64 { return 0 }

func (w *rackYear) reference() (string, error) {
	tr, err := solar.Generate(w.solarConfig())
	if err != nil {
		return "", err
	}
	cfg, err := w.config(tr)
	if err != nil {
		return "", err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return "", err
	}
	return rackDigest(res), nil
}

func (w *rackYear) run(clk clock, tr *tracer, c *checker) (*pass, error) {
	p := &pass{epochNs: make([]int64, 0, w.epochs)}
	t0 := clk.now()
	pv, err := solar.Generate(w.solarConfig())
	if err != nil {
		return nil, err
	}
	p.solarNs = clk.now() - t0
	cfg, err := w.config(pv)
	if err != nil {
		return nil, err
	}
	var tp *timedPolicy
	if tr != nil {
		tp = &timedPolicy{Policy: cfg.Policy, clk: clk, tr: tr}
		cfg.Policy = tp
	}
	s, err := sim.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	res := s.NewResult()
	prev := clk.now()
	p.setupNs = prev - t0
	passID := -1
	if tr != nil {
		passID = tr.add(spanPass, -1, -1, t0, 0)
		tr.add(spanSolar, passID, -1, t0, t0+p.solarNs)
		p.stepSelfNs = make([]int64, 0, w.epochs)
	}
	for !s.Done() {
		if tp != nil {
			tp.epoch = s.Epoch()
			tp.parent = tr.add(spanStep, passID, tp.epoch, prev, 0)
			tp.inStep = 0
		}
		er, err := s.Step()
		if err != nil {
			return nil, err
		}
		t := clk.now()
		p.epochNs = append(p.epochNs, t-prev)
		if tp != nil {
			tr.setEnd(tp.parent, t)
			p.stepSelfNs = append(p.stepSelfNs, t-prev-tp.inStep)
		}
		prev = t
		res.Epochs = append(res.Epochs, er)
	}
	res.BatteryCycles = s.Bank().Cycles()
	if tp != nil {
		tr.setEnd(passID, prev)
		p.allocNs = tp.ns
	}

	p.rackEpochs = len(res.Epochs)
	p.digest = rackDigest(res)
	checkRack(c, res, w.epochs, rackGridBudgetW)
	p.sim = simOut{
		epu:           res.MeanEPU(),
		perf:          res.MeanPerf(),
		gridKWh:       res.GridEnergyWh() / 1000,
		servedFrac:    1,
		batteryCycles: res.BatteryCycles,
	}
	tallyEpochs(&p.sim, res)
	return p, nil
}

// tallyEpochs adds a rack record's decision mix to out.
func tallyEpochs(out *simOut, r *sim.Result) {
	for k := range r.Epochs {
		e := &r.Epochs[k]
		out.served++
		if e.TrainingRun {
			out.trainingRuns++
		}
		switch e.Case {
		case power.CaseA:
			out.caseA++
		case power.CaseB:
			out.caseB++
		case power.CaseC:
			out.caseC++
		}
	}
}

// fleetOut fills the sim outputs of a fleet run.
func fleetOut(r *cluster.FleetResult, epochs int) simOut {
	out := simOut{
		epu:           r.MeanEPU(),
		perf:          r.TotalPerf(),
		gridKWh:       r.TotalGridWh() / 1000,
		batteryCycles: r.BatteryCycles,
	}
	present := 0
	for i, rr := range r.Racks {
		tallyEpochs(&out, rr.Result)
		h := r.Health[i]
		present += epochs - h.AbsentEpochs
		out.quarantines += len(h.Quarantines)
	}
	out.servedFrac = ratio(float64(out.served), float64(present))
	var hours float64
	if len(r.Racks) > 0 {
		hours = r.Racks[0].Result.EpochHours()
	}
	for _, s := range r.Site {
		out.downRackEpochs += s.DownRacks
		out.redistributedKWh += s.RedistributedW * hours / 1000
	}
	return out
}

// loadStorm parses the committed scenario with the workload seed in
// place of the scenario's own and builds its storm configuration.
// epochs > 0 resizes the run, lengthening the solar trace to cover it.
func loadStorm(s settings, epochs int) (chaos.StormConfig, *scenario.Scenario, error) {
	sc, err := scenario.LoadFile(s.scenario)
	if err != nil {
		return chaos.StormConfig{}, nil, err
	}
	sc.Seed = s.seed
	if epochs > 0 {
		sc.Epochs = epochs
		if days := (epochs + epochsPerDay - 1) / epochsPerDay; sc.Solar != nil && sc.Solar.Days < days {
			sc.Solar.Days = days
		}
	}
	st, err := sc.BuildStorm()
	if err != nil {
		return chaos.StormConfig{}, nil, err
	}
	st.Fleet.Parallelism = s.workers
	return st, sc, nil
}

// timeRacks gives every rack its own timed policy wrapper.
func timeRacks(cfg *cluster.Config, clk clock) []*timedPolicy {
	tps := make([]*timedPolicy, len(cfg.Racks))
	racks := make([]cluster.RackConfig, len(cfg.Racks))
	for i, rc := range cfg.Racks {
		tps[i] = &timedPolicy{Policy: rc.Policy, clk: clk}
		rc.Policy = tps[i]
		racks[i] = rc
	}
	cfg.Racks = racks
	return tps
}

// runFleet runs cfg through cluster.Run under probe and fills the
// pass's timings, digest and sim outputs. t0 is when the pass began
// building the workload.
func runFleet(p *pass, cfg cluster.Config, probe *fleetProbe, clk clock, tr *tracer, t0 int64) (*cluster.FleetResult, error) {
	var tps []*timedPolicy
	if tr != nil {
		tps = timeRacks(&cfg, clk)
	}
	start := clk.now()
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	end := clk.now()
	p.spanID = -1
	if tr != nil {
		p.spanID = tr.add(spanPass, -1, -1, t0, end)
		tr.add(spanScenario, p.spanID, -1, t0, t0+p.scenarioNs)
		tr.add(spanRun, p.spanID, -1, start, end)
	}
	if len(probe.marks) != cfg.Epochs {
		return nil, fmt.Errorf("epoch boundary seen %d times in %d epochs", len(probe.marks), cfg.Epochs)
	}
	p.epochNs = probe.finish(end, p.spanID)
	p.setupNs = probe.marks[0] - t0
	p.rackEpochs = len(cfg.Racks) * cfg.Epochs
	p.digest = fleetDigest(res)
	p.sim = fleetOut(res, cfg.Epochs)
	if tr != nil {
		p.probe = probe
		p.clusterNs = probe.marks[0] - start
		for _, tp := range tps {
			p.allocNs = append(p.allocNs, tp.ns...)
		}
	}
	return res, nil
}

// timeSolar times solar.Generate on the scenario's solar spec. The
// scenario build runs the same generation internally, where it cannot
// be timed from outside.
func timeSolar(clk clock, tr *tracer, parent int, sc *scenario.Scenario) (int64, error) {
	if sc.Solar == nil {
		return 0, nil
	}
	profile, err := solar.ParseProfile(sc.Solar.Profile)
	if err != nil {
		return 0, err
	}
	days := sc.Solar.Days
	if days == 0 {
		days = 7
	}
	t0 := clk.now()
	_, err = solar.Generate(solar.Config{
		Profile:   profile,
		PeakWatts: sc.Solar.PeakWatts,
		Days:      days,
		Step:      15 * time.Minute,
		Seed:      sc.Solar.Seed,
	})
	t1 := clk.now()
	tr.add(spanSolar, parent, -1, t0, t1)
	return t1 - t0, err
}

// fleetHealthy is the 1000 racks storm-1000.json generates, run healthy
// through cluster.Run: no disturber, no checkpointer.
type fleetHealthy struct{ settings }

// epochQuantile is the median pass. A site epoch lasts milliseconds
// on every worker and ends at a barrier, so host interference adds up
// from many small delays instead of flipping it whole, and the fastest
// of some 150 passes is an extreme. Over three sets of six storm runs
// on the host as found, the p40–p60 mean of per-epoch medians spread
// 0.06–0.12, of per-epoch p10s 0.10–0.15 and of fastest passes
// 0.14–0.19.
func (w *fleetHealthy) epochQuantile() float64 { return 50 }

func (w *fleetHealthy) reference() (string, error) {
	st, _, err := loadStorm(w.settings, w.epochs)
	if err != nil {
		return "", err
	}
	res, err := cluster.Run(st.Fleet)
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

func (w *fleetHealthy) run(clk clock, tr *tracer, c *checker) (*pass, error) {
	p := &pass{}
	t0 := clk.now()
	st, sc, err := loadStorm(w.settings, w.epochs)
	if err != nil {
		return nil, err
	}
	cfg := st.Fleet
	p.scenarioNs = clk.now() - t0
	probe := newFleetProbe(clk, tr, cfg.Epochs)
	cfg.Allocator = probedAllocator{Allocator: cfg.Allocator, p: probe, boundary: true}
	res, err := runFleet(p, cfg, probe, clk, tr, t0)
	if err != nil {
		return nil, err
	}
	checkFleet(c, res, cfg.Epochs, func(int) float64 { return cfg.SiteGridBudgetW })
	if tr != nil {
		if p.solarNs, err = timeSolar(clk, tr, p.spanID, sc); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// storm is the committed storm-1000 scenario. chaos.Run installs its
// own disturber and checkpointer, so a probed pass rebuilds the same
// wiring from public parts (stormDefaults, chaos.NewEngine,
// chaos.NewHarness) around the probes; every pass's digest must equal
// chaos.Run's.
type storm struct{ settings }

// epochQuantile is the median pass, as on the healthy fleet.
func (w *storm) epochQuantile() float64 { return 50 }

func (w *storm) reference() (string, error) {
	st, _, err := loadStorm(w.settings, 0)
	if err != nil {
		return "", err
	}
	res, _, err := chaos.Run(st)
	if err != nil {
		return "", err
	}
	return fleetDigest(res), nil
}

// stormDefaults applies chaos.Run's defaults and checks.
func stormDefaults(sc chaos.StormConfig) (chaos.StormConfig, error) {
	if sc.SnapshotEvery == 0 {
		sc.SnapshotEvery = 8
	}
	if sc.Chaos.Racks == 0 {
		sc.Chaos.Racks = len(sc.Fleet.Racks)
	}
	if sc.Chaos.Epochs == 0 {
		sc.Chaos.Epochs = sc.Fleet.Epochs
	}
	if sc.Chaos.Names == nil {
		for _, rc := range sc.Fleet.Racks {
			sc.Chaos.Names = append(sc.Chaos.Names, rc.Rack.Name())
		}
	}
	if sc.Chaos.Racks != len(sc.Fleet.Racks) || sc.Chaos.Epochs != sc.Fleet.Epochs {
		return sc, fmt.Errorf("storm schedule sized for %d racks × %d epochs, fleet has %d × %d",
			sc.Chaos.Racks, sc.Chaos.Epochs, len(sc.Fleet.Racks), sc.Fleet.Epochs)
	}
	return sc, nil
}

// gridBudgets replays the schedule on a fresh engine and returns each
// epoch's site grid budget after price-spike scaling.
func gridBudgets(st chaos.StormConfig) ([]float64, error) {
	eng, err := chaos.NewEngine(st.Chaos)
	if err != nil {
		return nil, err
	}
	d := cluster.NewDisturbance(len(st.Fleet.Racks))
	out := make([]float64, st.Fleet.Epochs)
	for e := range out {
		d.Reset()
		eng.Disturb(e, d)
		out[e] = st.Fleet.SiteGridBudgetW * d.GridBudgetScaleFrac
	}
	return out, nil
}

func (w *storm) run(clk clock, tr *tracer, c *checker) (*pass, error) {
	p := &pass{}
	t0 := clk.now()
	st, sc, err := loadStorm(w.settings, 0)
	if err != nil {
		return nil, err
	}
	p.scenarioNs = clk.now() - t0
	if st, err = stormDefaults(st); err != nil {
		return nil, err
	}
	e0 := clk.now()
	eng, err := chaos.NewEngine(st.Chaos)
	if err != nil {
		return nil, err
	}
	p.engineNs = clk.now() - e0
	cfg := st.Fleet
	probe := newFleetProbe(clk, tr, cfg.Epochs)
	cfg.Disturber = probedDisturber{Disturber: eng, p: probe}
	if st.Chaos.WALRack >= 0 {
		h, err := chaos.NewHarness(st.Chaos.WALRack, runner.DeriveSeed(st.Chaos.Seed, "chaos/walfs"), st.SnapshotEvery, eng.DaemonArm())
		if err != nil {
			return nil, err
		}
		cfg.Checkpointer = h
		if tr != nil {
			cfg.Checkpointer = probedCheckpointer{Checkpointer: h, p: probe}
		}
	}
	if tr != nil {
		cfg.Allocator = probedAllocator{Allocator: cfg.Allocator, p: probe}
	}
	res, err := runFleet(p, cfg, probe, clk, tr, t0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add(spanEngine, p.spanID, -1, e0, e0+p.engineNs)
	}
	budgets, err := gridBudgets(st)
	if err != nil {
		return nil, err
	}
	checkFleet(c, res, cfg.Epochs, func(e int) float64 { return budgets[e] })
	if tr != nil {
		if p.solarNs, err = timeSolar(clk, tr, p.spanID, sc); err != nil {
			return nil, err
		}
	}
	return p, nil
}

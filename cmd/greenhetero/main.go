// Command greenhetero runs one simulated rack under a chosen policy and
// prints the per-epoch record plus a summary — the interactive front end
// to the library.
//
// Usage:
//
//	greenhetero [-combo Comb1] [-workload specjbb] [-policy GreenHetero]
//	            [-trace high|low] [-epochs 96] [-grid 1000] [-panel 2200]
//	            [-seed 7] [-every 4] [-compare]
//
// With -compare, all five Table III policies run on identical conditions
// and a comparison summary is printed instead of the epoch record.
//
// With -fleet N, N replicas of the rack run as a fleet under the site
// coordinator: each epoch a site allocator (-alloc) splits the shared
// PV feed, site battery bank, and site grid budget (-site-grid) across
// racks, and the site-level epoch trace is printed.
//
// Scenario files with a "stress" block run as seeded failure storms:
// the chaos schedule plays out over the fleet, a stress summary is
// printed, and -report writes the full JSON stress report. -validate
// parses and checks any scenario file without running it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"greenhetero/internal/chaos"
	"greenhetero/internal/cluster"
	"greenhetero/internal/policy"
	"greenhetero/internal/scenario"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "greenhetero:", err)
		os.Exit(1)
	}
}

// comboServers mirrors Table IV.
var comboServers = map[string][]string{
	"Comb1": {server.XeonE52620, server.CoreI54460},
	"Comb2": {server.XeonE52603, server.CoreI54460},
	"Comb3": {server.XeonE52650, server.XeonE52620},
	"Comb4": {server.CoreI78700K, server.CoreI54460},
	"Comb5": {server.XeonE52620, server.XeonE52603, server.CoreI54460},
	"Comb6": {server.XeonE52620, server.TitanXp},
}

func run(args []string) error {
	fs := flag.NewFlagSet("greenhetero", flag.ContinueOnError)
	comboFlag := fs.String("combo", "Comb1", "server combination (Comb1..Comb6)")
	workloadFlag := fs.String("workload", workload.SPECjbb, "workload id (see ghbench tab1)")
	policyFlag := fs.String("policy", "GreenHetero", "allocation policy (Table III name)")
	traceFlag := fs.String("trace", "high", "solar trace: high or low")
	epochs := fs.Int("epochs", 96, "number of 15-minute scheduling epochs")
	grid := fs.Float64("grid", 1000, "grid power budget (W)")
	panel := fs.Float64("panel", 2200, "PV array peak output (W)")
	seed := fs.Int64("seed", 7, "measurement noise seed")
	every := fs.Int("every", 4, "print every Nth epoch")
	compare := fs.Bool("compare", false, "compare all five policies instead")
	parallel := fs.Int("parallel", 0, "concurrent runs for -compare (0 = one per CPU, 1 = serial)")
	csvPath := fs.String("csv", "", "also write the per-epoch record to this CSV file")
	scenarioPath := fs.String("scenario", "", "load the run from a JSON scenario file (overrides combo/workload/trace flags)")
	validatePath := fs.String("validate", "", "parse and check a scenario file, then exit without running")
	reportPath := fs.String("report", "", "write the JSON stress report of a stress scenario run to this file")
	fleetN := fs.Int("fleet", 0, "run N rack replicas as a fleet under the site coordinator")
	allocFlag := fs.String("alloc", "hierarchical-par", "fleet allocator: uniform, demand-proportional, hierarchical-par")
	siteGrid := fs.Float64("site-grid", 0, "site grid budget (W) for -fleet (0 = grid × racks)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs < 1 || *every < 1 {
		return errors.New("epochs and every must be positive")
	}
	if *fleetN < 0 {
		return fmt.Errorf("fleet %d: rack count must not be negative", *fleetN)
	}

	if *validatePath != "" {
		return validateScenario(*validatePath)
	}

	if *scenarioPath != "" {
		sc, err := scenario.LoadFile(*scenarioPath)
		if err != nil {
			return err
		}
		if sc.Stress != nil {
			if *compare {
				return errors.New("stress scenarios do not support -compare")
			}
			storm, err := sc.BuildStorm()
			if err != nil {
				return err
			}
			storm.Fleet.Parallelism = *parallel
			res, rep, err := chaos.Run(storm)
			if err != nil {
				return err
			}
			printStorm(res, rep)
			return writeReportIfAsked(rep, *reportPath)
		}
		if sc.Fleet != nil {
			if *compare {
				return errors.New("fleet scenarios do not support -compare")
			}
			fcfg, err := sc.BuildFleet()
			if err != nil {
				return err
			}
			fcfg.Parallelism = *parallel
			res, err := cluster.Run(fcfg)
			if err != nil {
				return err
			}
			printFleet(res, *every)
			return nil
		}
		cfg, err := sc.Build()
		if err != nil {
			return err
		}
		if *compare {
			return runCompare(cfg, *parallel)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		printRun(res, *every)
		return writeCSVIfAsked(res, *csvPath)
	}

	serverIDs, ok := comboServers[*comboFlag]
	if !ok {
		return fmt.Errorf("unknown combo %q (have Comb1..Comb6)", *comboFlag)
	}
	groups := make([]server.Group, 0, len(serverIDs))
	for _, id := range serverIDs {
		spec, err := server.Lookup(id)
		if err != nil {
			return err
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	rack, err := server.NewRack(strings.ToLower(*comboFlag), groups...)
	if err != nil {
		return err
	}
	w, err := workload.Lookup(*workloadFlag)
	if err != nil {
		return err
	}
	profile, err := solar.ParseProfile(*traceFlag)
	if err != nil {
		return err
	}
	generate := solar.DefaultHigh
	if profile == solar.Low {
		generate = solar.DefaultLow
	}
	tr, err := generate(*panel)
	if err != nil {
		return err
	}
	if *fleetN > 0 {
		if *compare {
			return errors.New("-fleet does not support -compare")
		}
		alloc, err := cluster.AllocatorByName(*allocFlag)
		if err != nil {
			return err
		}
		racks := make([]cluster.RackConfig, *fleetN)
		for i := range racks {
			// One policy per rack: racks step concurrently, and Manual
			// keeps state.
			p, err := policy.ByName(*policyFlag)
			if err != nil {
				return err
			}
			r, err := server.NewRack(fmt.Sprintf("%s-%03d", strings.ToLower(*comboFlag), i), groups...)
			if err != nil {
				return err
			}
			racks[i] = cluster.RackConfig{Rack: r, Workload: w, Policy: p}
		}
		sg := *siteGrid
		if sg == 0 {
			sg = *grid * float64(*fleetN)
		}
		res, err := cluster.Run(cluster.Config{
			Racks:           racks,
			Solar:           tr,
			Allocator:       alloc,
			SiteGridBudgetW: sg,
			Epochs:          *epochs,
			Seed:            *seed,
			Parallelism:     *parallel,
		})
		if err != nil {
			return err
		}
		printFleet(res, *every)
		return nil
	}

	cfg := sim.Config{
		Rack:        rack,
		Workload:    w,
		Solar:       tr,
		Epochs:      *epochs,
		GridBudgetW: *grid,
		Seed:        *seed,
	}

	if *compare {
		return runCompare(cfg, *parallel)
	}

	p, err := policy.ByName(*policyFlag)
	if err != nil {
		return err
	}
	cfg.Policy = p
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	printRun(res, *every)
	return writeCSVIfAsked(res, *csvPath)
}

// validateScenario parses and checks a scenario file — including its
// stress block and full storm expansion — without running anything.
func validateScenario(path string) error {
	sc, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	switch {
	case sc.Stress != nil:
		storm, err := sc.BuildStorm()
		if err != nil {
			return err
		}
		fmt.Printf("scenario OK: %s (stress: %d racks, %d epochs, %d chaos events)\n",
			sc.Name, len(storm.Fleet.Racks), sc.Epochs, len(storm.Chaos.Events))
	case sc.Fleet != nil:
		fcfg, err := sc.BuildFleet()
		if err != nil {
			return err
		}
		fmt.Printf("scenario OK: %s (fleet: %d racks, %d epochs)\n", sc.Name, len(fcfg.Racks), sc.Epochs)
	default:
		if _, err := sc.Build(); err != nil {
			return err
		}
		fmt.Printf("scenario OK: %s (single rack, %d epochs)\n", sc.Name, sc.Epochs)
	}
	return nil
}

// printStorm prints a stress run's summary.
func printStorm(res *cluster.FleetResult, rep *chaos.Report) {
	fmt.Printf("storm %s: seed=%d racks=%d epochs=%d allocator=%s events=%d\n",
		rep.Scenario, rep.Seed, rep.Racks, rep.Epochs, rep.Allocator, len(rep.Events))
	fmt.Printf("fleet perf=%.0f  mean EPU=%.3f  grid=%.0f Wh (%.0f cost units)  redistributed=%.0f Wh\n",
		rep.TotalPerf, rep.MeanEPU, rep.TotalGridWh, rep.GridCostUnits, rep.RedistributedWh)
	fmt.Printf("degraded epochs=%d/%d  failed rack-epochs=%d  SLO violations=%d  quarantines=%d (mean recovery %.1f epochs)\n",
		rep.DegradedEpochs, len(res.Site), rep.FailedEpochs, rep.SLOViolations,
		rep.Quarantines, rep.MeanRecoveryEpochs)
	if rep.DaemonCrashes > 0 || rep.DaemonRecoveries > 0 {
		fmt.Printf("daemon crashes=%d recoveries=%d\n", rep.DaemonCrashes, rep.DaemonRecoveries)
	}
}

// writeReportIfAsked writes the stress report JSON when a path was
// given.
func writeReportIfAsked(rep *chaos.Report, path string) error {
	if path == "" {
		return nil
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeCSVIfAsked exports the per-epoch record when a path was given.
func writeCSVIfAsked(res *sim.Result, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func printRun(res *sim.Result, every int) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "epoch\thour\tcase\tren(W)\tsupply(W)\tPAR\tperf\tEPU\tbatt out\tbatt in\tgrid\tSoC")
	for i, e := range res.Epochs {
		if i%every != 0 {
			continue
		}
		par := 0.0
		var sum float64
		for _, f := range e.Fractions {
			sum += f
		}
		if sum > 0 {
			par = e.Fractions[0] / sum
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%s\t%.0f\t%.0f\t%.2f\t%.0f\t%.2f\t%.0f\t%.0f\t%.0f\t%.2f\n",
			e.Epoch, float64(e.Epoch)/4, e.Case, e.RenewableW, e.SupplyW, par,
			e.Perf, e.EPU, e.BatteryOutW, e.BatteryInW, e.GridW, e.BatterySoC)
	}
	tw.Flush()
	fmt.Printf("\npolicy=%s workload=%s epochs=%d\n", res.Policy, res.Workload, len(res.Epochs))
	fmt.Printf("mean perf=%.0f (scarce %.0f)  mean EPU=%.3f (scarce %.3f)  mean PAR=%.0f%%  grid=%.0f Wh\n",
		res.MeanPerf(), res.MeanPerfScarce(), res.MeanEPU(), res.MeanEPUScarce(),
		res.MeanPAR()*100, res.GridEnergyWh())
}

// printFleet prints the site-level epoch trace and fleet summary.
func printFleet(res *cluster.FleetResult, every int) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "epoch\thour\tren(W)\tbid(W)\tsupply(W)\tgrid(W)\tbatt out\tbatt in\tSoC")
	for i, e := range res.Site {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f\n",
			e.Epoch, float64(e.Epoch)/4, e.RenewableW, e.BidW, e.SupplyW,
			e.GridW, e.BatteryOutW, e.BatteryInW, e.BatterySoC)
	}
	tw.Flush()
	fmt.Printf("\nallocator=%s racks=%d epochs=%d\n", res.Allocator, len(res.Racks), len(res.Site))
	fmt.Printf("fleet perf=%.0f (scarce %.0f)  mean EPU=%.3f  grid=%.0f Wh  battery cycles=%d\n",
		res.TotalPerf(), res.TotalPerfScarce(), res.MeanEPU(), res.TotalGridWh(), res.BatteryCycles)
	for _, r := range res.Racks {
		fmt.Printf("  %-16s perf=%.0f  EPU=%.3f  grid=%.0f Wh\n",
			r.Name, r.Result.MeanPerf(), r.Result.MeanEPU(), r.Result.GridEnergyWh())
	}
}

func runCompare(cfg sim.Config, parallel int) error {
	results, err := sim.CompareParallel(cfg, policy.All(), parallel)
	if err != nil {
		return err
	}
	base := results["Uniform"]
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tmean perf\tvs Uniform\tscarce perf\tvs Uniform\tmean EPU\tgrid (Wh)")
	for _, p := range policy.All() {
		r := results[p.Name()]
		fmt.Fprintf(tw, "%s\t%.0f\t%.2fx\t%.0f\t%.2fx\t%.3f\t%.0f\n",
			p.Name(), r.MeanPerf(), ratio(r.MeanPerf(), base.MeanPerf()),
			r.MeanPerfScarce(), ratio(r.MeanPerfScarce(), base.MeanPerfScarce()),
			r.MeanEPU(), r.GridEnergyWh())
	}
	return tw.Flush()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

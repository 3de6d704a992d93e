// Package greenhetero's benchmark harness: one testing.B benchmark per
// paper table and figure (plus the DESIGN.md ablations), each driving the
// corresponding experiment runner end-to-end. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks execute the experiments in Quick mode (reduced epoch counts)
// so -bench sweeps stay fast; `go run ./cmd/ghbench <id>` produces the
// full-size artifact.
package greenhetero

import (
	"fmt"
	"io"
	"testing"
	"time"

	"greenhetero/internal/cluster"
	"greenhetero/internal/experiments"
	"greenhetero/internal/policy"
	"greenhetero/internal/scenario"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/workload"
)

// benchExperiment drives one experiment runner under the benchmark loop.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables I–IV ----

func BenchmarkTable1Catalog(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTable2Catalog(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkTable3Policies(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkTable4Combos(b *testing.B)   { benchExperiment(b, "tab4") }

// ---- Figures ----

// BenchmarkFig3ParSweep regenerates the §III case study (EPU and
// normalized performance across the PAR sweep at a fixed 220 W budget).
func BenchmarkFig3ParSweep(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig6SourceSelection classifies a 24-hour day into the
// Case A/B/C source-selection regimes of Fig. 6.
func BenchmarkFig6SourceSelection(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig8HighTrace replays the 24-hour SPECjbb run on the High
// solar trace (performance/PAR series plus battery and grid activity).
func BenchmarkFig8HighTrace(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9WorkloadPerf regenerates the 12-workload × 5-policy
// normalized performance comparison.
func BenchmarkFig9WorkloadPerf(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10WorkloadEPU regenerates the EPU counterpart of Fig. 9.
func BenchmarkFig10WorkloadEPU(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11LowTrace replays the 24-hour run on the fluctuating Low
// solar trace.
func BenchmarkFig11LowTrace(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12GridBudget sweeps the grid power budget with drained
// batteries.
func BenchmarkFig12GridBudget(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13Combos compares SPECjbb across the Comb1–Comb5 racks.
func BenchmarkFig13Combos(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14GPU compares the Rodinia workloads on the CPU+GPU rack.
func BenchmarkFig14GPU(b *testing.B) { benchExperiment(b, "fig14") }

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkExtensionCluster runs the 3-rack datacenter extension.
func BenchmarkExtensionCluster(b *testing.B) { benchExperiment(b, "ext-cluster") }

// BenchmarkExtensionMixed runs the mixed-rack (collocated services)
// extension.
func BenchmarkExtensionMixed(b *testing.B) { benchExperiment(b, "ext-mixed") }

func BenchmarkAblationDBUpdate(b *testing.B)   { benchExperiment(b, "abl-dbupdate") }
func BenchmarkAblationSolverGrid(b *testing.B) { benchExperiment(b, "abl-solver") }
func BenchmarkAblationPredictor(b *testing.B)  { benchExperiment(b, "abl-predictor") }
func BenchmarkAblationNoise(b *testing.B)      { benchExperiment(b, "abl-noise") }

// ---- Epoch hot path ----

// benchEpochs times one controller epoch per iteration on the adaptive
// GreenHetero policy and reports throughput as an epochs/sec metric.
// It is the quick local probe of the hot path (add -cpuprofile to see
// where an epoch goes); perfbench/ is the benchmark of record.
func benchEpochs(b *testing.B, combo ...string) {
	b.Helper()
	groups := make([]server.Group, 0, len(combo))
	for _, id := range combo {
		spec, err := server.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	rack, err := server.NewRack("bench-epoch", groups...)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := solar.Generate(solar.Config{
		Profile:   solar.High,
		PeakWatts: 2200,
		Days:      4,
		Step:      15 * time.Minute,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		b.Fatal(err)
	}
	newSession := func() *sim.Session {
		sess, err := sim.NewSession(sim.Config{
			Rack:        rack,
			Workload:    w,
			Policy:      policy.Solver{Adaptive: true},
			Solar:       tr,
			Epochs:      tr.Len(),
			GridBudgetW: 1000,
			Seed:        7,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}

	sess := newSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sess.Done() {
			b.StopTimer()
			sess = newSession()
			b.StartTimer()
		}
		if _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "epochs/sec")
}

// BenchmarkEpochComb1 steps the two-group Comb1 rack over a 4-day High
// trace.
func BenchmarkEpochComb1(b *testing.B) {
	benchEpochs(b, server.XeonE52620, server.CoreI54460)
}

// BenchmarkEpochComb5 steps the three-group Comb5 rack, the heaviest
// solver case (full 3-simplex grid).
func BenchmarkEpochComb5(b *testing.B) {
	benchEpochs(b, server.XeonE52620, server.XeonE52603, server.CoreI54460)
}

// BenchmarkFleetComb5 runs one day of a 64-rack fleet of three-group
// Comb5 racks under the hierarchical-PAR site split, one fleet run per
// iteration, and reports rack·epochs/sec (fleet set-up included). Unlike
// the single-group storm racks, every rack step here runs the 3-group
// PAR solve, so per-rack cost is uneven across the step barrier's
// chunks.
func BenchmarkFleetComb5(b *testing.B) {
	const racks = 64
	var groups []server.Group
	for _, id := range []string{server.XeonE52620, server.XeonE52603, server.CoreI54460} {
		spec, err := server.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	w, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.Config{Allocator: cluster.HierarchicalPAR{}, SiteGridBudgetW: racks * 500, Seed: 7}
	for i := 0; i < racks; i++ {
		rack, err := server.NewRack(fmt.Sprintf("comb5-%02d", i), groups...)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Racks = append(cfg.Racks, cluster.RackConfig{Rack: rack, Workload: w, Policy: policy.Solver{Adaptive: true}})
	}
	if cfg.Solar, err = solar.Generate(solar.Config{
		Profile:   solar.High,
		PeakWatts: racks * 1500,
		Days:      1,
		Step:      15 * time.Minute,
		Seed:      1,
	}); err != nil {
		b.Fatal(err)
	}
	cfg.Epochs = cfg.Solar.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*racks*cfg.Epochs)/b.Elapsed().Seconds(), "rack-epochs/sec")
}

// BenchmarkFleetSetupStorm1000 times cluster.NewFleet on the committed
// storm-1000 scenario, one fleet set-up per iteration: validation, the
// site bank and the 1000 rack sessions (each seeding its own noise
// stream) built through the runner pool. The scenario is parsed and
// built once, outside the timer.
func BenchmarkFleetSetupStorm1000(b *testing.B) {
	sc, err := scenario.LoadFile("scenarios/storm-1000.json")
	if err != nil {
		b.Fatal(err)
	}
	st, err := sc.BuildStorm()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.NewFleet(st.Fleet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullEvaluation runs every registered experiment once per
// iteration — the paper's complete evaluation end to end.
func BenchmarkFullEvaluation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range experiments.IDs() {
			tbl, err := experiments.Run(id, experiments.Options{Quick: true})
			if err != nil {
				b.Fatal(fmt.Errorf("%s: %w", id, err))
			}
			if _, err := tbl.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

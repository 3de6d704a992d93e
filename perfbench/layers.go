package main

import (
	"fmt"
	"io"
)

// perLayer fills the traced run's per-layer metrics. plain is the
// untraced half of the run (Go runtime counters, untraced throughput);
// traced is the half with every probe recording.
func perLayer(res *result, plain, traced *phase, workers int, w io.Writer) {
	var (
		alloc, self, split, disturb, commit, recov []int64
		epochNs                                    int64
		siteEpochs, served, commitFails            int
		clusterS, scenarioS, solarS, engineS       []float64
		fleet                                      bool
	)
	for _, p := range traced.passes {
		alloc = append(alloc, p.allocNs...)
		self = append(self, p.stepSelfNs...)
		epochNs += p.stepNs
		siteEpochs += p.epochs
		served += p.sim.served
		scenarioS = append(scenarioS, float64(p.scenarioNs)/1e9)
		solarS = append(solarS, float64(p.solarNs)/1e9)
		engineS = append(engineS, float64(p.engineNs)/1e9)
		clusterS = append(clusterS, float64(p.clusterNs)/1e9)
		if pr := p.probe; pr != nil {
			fleet = true
			split = append(split, pr.splitNs...)
			disturb = append(disturb, pr.disturbNs...)
			commit = append(commit, pr.commitNs...)
			recov = append(recov, pr.recoverNs...)
			commitFails += pr.commitFails
		}
	}
	passes := float64(len(traced.passes))
	allocSum := float64(sum64(alloc))
	allocSorted := sortedCopy(alloc)

	selfMean := meanNs(self)
	share := ratio(allocSum, float64(epochNs))
	nWorkers := 0
	if fleet {
		// A fleet's rack steps run inside cluster.Run, out of reach of an
		// outside probe. What the site epoch spends outside the timed
		// cluster/chaos/wal calls, spread over the workers and the served
		// rack steps, bounds the step's self time from above.
		nWorkers = workers
		covered := sum64(split) + sum64(disturb) + sum64(commit) + sum64(recov)
		busy := float64(epochNs-covered) * float64(workers)
		selfMean = ratio(busy-allocSum, float64(served))
		share = ratio(allocSum, float64(epochNs)*float64(workers))
	}

	s := traced.passes[0].sim
	gc := plain.gc
	plainEpochs := float64(plain.rackEpochs())
	plainPasses := float64(len(plain.passes))

	rows := []struct {
		name string
		v    float64
		unit string
	}{
		{"sim.step.self_ns_mean", selfMean, "ns"},
		{"sim.training_runs", float64(s.trainingRuns), "count"},
		{"policy.allocate.calls_per_rack_epoch", ratio(float64(len(alloc)), float64(served)), "calls/rack_epoch"},
		{"policy.allocate.ns_mean", meanNs(alloc), "ns"},
		{"policy.allocate.ns_p99", float64(percentile(allocSorted, 99)), "ns"},
		{"policy.allocate.samples", float64(len(alloc)), "count"},
		{"policy.allocate.share", share, "fraction"},
		{"policy.allocate.ns_per_site_epoch", ratio(allocSum, float64(siteEpochs)), "ns"},
		{"core.case_a_frac", ratio(float64(s.caseA), float64(s.served)), "fraction"},
		{"core.case_b_frac", ratio(float64(s.caseB), float64(s.served)), "fraction"},
		{"core.case_c_frac", ratio(float64(s.caseC), float64(s.served)), "fraction"},
		{"cluster.setup_s", medianF(clusterS), "s"},
		{"cluster.split.ns_mean", meanNs(split), "ns"},
		{"cluster.split.calls_per_epoch", ratio(float64(len(split)), float64(siteEpochs)), "calls/epoch"},
		{"cluster.down_rack_epoch_frac", ratio(float64(s.downRackEpochs), float64(traced.passes[0].rackEpochs)), "fraction"},
		{"cluster.quarantines", float64(s.quarantines), "count"},
		{"cluster.redistributed_kwh", s.redistributedKWh, "kWh"},
		{"chaos.engine_setup_s", medianF(engineS), "s"},
		{"chaos.disturb.ns_mean", meanNs(disturb), "ns"},
		{"wal.commit.calls", float64(len(commit)) / passes, "count"},
		{"wal.commit.ns_mean", meanNs(commit), "ns"},
		{"wal.commit.ns_max", float64(maxNs(commit)), "ns"},
		{"wal.commit.fail_frac", ratio(float64(commitFails), float64(len(commit))), "fraction"},
		{"wal.recover.calls", float64(len(recov)) / passes, "count"},
		{"wal.recover.ns_mean", meanNs(recov), "ns"},
		{"scenario.build_s", medianF(scenarioS), "s"},
		{"solar.generate_s", medianF(solarS), "s"},
		{"battery.cycles", float64(s.batteryCycles), "count"},
		{"runner.workers", float64(nWorkers), "count"},
		{"go.allocs_per_rack_epoch", ratio(float64(gc.mallocs), plainEpochs), "1/rack_epoch"},
		{"go.bytes_per_rack_epoch", ratio(float64(gc.bytes), plainEpochs), "B/rack_epoch"},
		{"go.gc_cycles", ratio(float64(gc.cycles), plainPasses), "1/pass"},
		{"go.gc_pause_ms", ratio(float64(gc.pauseNs)/1e6, plainPasses), "ms/pass"},
		{"trace.overhead_frac", ratio(plain.throughput(), traced.throughput()) - 1, "fraction"},
	}
	fmt.Fprintf(w, "traced passes=%d untraced passes=%d site_epochs=%d rack_epochs=%d\n",
		len(traced.passes), len(plain.passes), siteEpochs, traced.rackEpochs())
	fmt.Fprintf(w, "untraced %.1f rack_epochs/s, traced %.1f rack_epochs/s\n", plain.throughput(), traced.throughput())
	for _, r := range rows {
		res.Metrics[r.name] = metric{Value: r.v, Unit: r.unit}
		fmt.Fprintf(w, "%-38s %18.6f %s\n", r.name, r.v, r.unit)
	}
	if !fleet {
		fmt.Fprintf(w, "rack epoch: policy.allocate %.0f ns + sim.step.self %.0f ns = traced mean epoch %.0f ns; untraced %.0f ns/epoch at per-epoch p%g\n",
			ratio(allocSum, float64(siteEpochs)), selfMean, ratio(float64(epochNs), float64(siteEpochs)), 1e9/plain.throughput(), plain.epochs.q)
	}
}

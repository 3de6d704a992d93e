// Command perfbench is greenhetero's benchmark of record. It runs one
// named workload for a fixed host time, checks every simulated epoch
// against invariants that hold for any seed, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench --workload rack-year-comb5 --seed 42 --seconds 20 --trace 0
//
// All timing is taken from outside the program: the benchmark wraps the
// public injection points (policy.Policy, cluster.Allocator,
// cluster.Disturber, cluster.Checkpointer) and entry points
// (sim.Session.Step, cluster.Run, chaos.Run, scenario.LoadFile and
// BuildStorm, solar.Generate). See README.md for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seconds  float64
	traced   bool
	traceOut string // traced runs write their spans here ("" = nowhere)
	settings
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is a run of back-to-back passes.
type phase struct {
	passes []*pass
	epochs *profile // each schedule epoch's host times over the passes
	times  []int64  // each schedule epoch's host time, sorted
	rssMB  float64  // peak resident set after the first rssPasses passes
	gc     gcCounts // Go runtime activity summed over the passes
}

// gcCounts is Go runtime activity inside passes.
type gcCounts struct {
	mallocs, bytes, cycles, pauseNs uint64
}

func (ph *phase) rackEpochs() int {
	n := 0
	for _, p := range ph.passes {
		n += p.rackEpochs
	}
	return n
}

// throughput is one pass's rack·epochs over the summed host time of
// the schedule's epochs, each at its per-epoch time. Host stalls and
// slow spells of other tenants hit a few passes at a time, so they
// stay out of it.
func (ph *phase) throughput() float64 {
	return ratio(float64(ph.passes[0].rackEpochs), float64(sum64(ph.times))/1e9)
}

func main() {
	o := options{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "rack-year-comb5, fleet-1000 or storm-1000")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed (overrides the storm scenario's seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.traced = *trace == 1
	// Paths are relative to the repository root, where the benchmark runs.
	o.scenario = filepath.Join("scenarios", "storm-1000.json")
	o.traceOut = filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	// Fleets step racks with one worker per CPU the process may use.
	o.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.workers)
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the benchmark and returns the result line. Progress and
// the human-readable tables go to w.
func run(o options, w io.Writer) (*result, error) {
	wl, err := newWorkload(o.workload, o.settings)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g traced=%t workers=%d gomaxprocs=%d\n",
		o.workload, o.seed, o.seconds, o.traced, o.workers, runtime.GOMAXPROCS(0))

	// The plain entry point's outputs are the reference every probed
	// pass must reproduce; the run also warms caches before timing.
	ref, err := wl.reference()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	clk := clock{base: time.Now()}
	c := &checker{}
	res := &result{Metrics: map[string]metric{}}

	if !o.traced {
		ph, err := measure(wl, clk, nil, o.seconds, c)
		if err != nil {
			return nil, err
		}
		endToEnd(res, ph, w)
		finish(res, c, ref, w, ph)
		return res, nil
	}

	plain, err := measure(wl, clk, nil, o.seconds/2, c)
	if err != nil {
		return nil, err
	}
	tr := &tracer{clk: clk, limit: spanLimit}
	traced, err := measure(wl, clk, tr, o.seconds/2, c)
	if err != nil {
		return nil, err
	}
	perLayer(res, plain, traced, o.workers, w)
	if o.traceOut != "" {
		if err := writeSpans(o, tr); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d kept, %d dropped, written to %s\n", len(tr.spans), tr.dropped, o.traceOut)
	}
	finish(res, c, ref, w, plain, traced)
	return res, nil
}

// spanLimit caps the spans a traced run keeps for its span file.
const spanLimit = 100_000

// measure runs passes back to back until seconds of host time have
// passed (at least one pass).
func measure(wl workloadRunner, clk clock, tr *tracer, seconds float64, c *checker) (*phase, error) {
	ph := &phase{epochs: newProfile(wl.epochQuantile())}
	var before, after runtime.MemStats
	start := clk.now()
	for len(ph.passes) == 0 || float64(clk.now()-start) < seconds*1e9 {
		if tr != nil {
			tr.pass = len(ph.passes)
		}
		// Start every pass from a collected heap, so no pass carries its
		// predecessor's garbage into its peak memory.
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := wl.run(clk, tr, c)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(ph.passes), err)
		}
		runtime.ReadMemStats(&after)
		ph.gc.mallocs += after.Mallocs - before.Mallocs
		ph.gc.bytes += after.TotalAlloc - before.TotalAlloc
		ph.gc.cycles += uint64(after.NumGC - before.NumGC)
		ph.gc.pauseNs += after.PauseTotalNs - before.PauseTotalNs
		ph.epochs.add(p.epochNs)
		p.epochs, p.stepNs, p.epochNs = len(p.epochNs), sum64(p.epochNs), nil
		ph.passes = append(ph.passes, p)
		if len(ph.passes) == rssPasses {
			ph.rssMB = maxRSSMB()
		}
	}
	if ph.rssMB == 0 {
		ph.rssMB = maxRSSMB()
	}
	ph.times = ph.epochs.times()
	return ph, nil
}

// finish compares every pass's digest with the reference, then fills
// the result's operation counts and correctness.
func finish(res *result, c *checker, ref string, w io.Writer, phases ...*phase) {
	for i, ph := range phases {
		for k, p := range ph.passes {
			res.Attempted += p.rackEpochs
			if p.digest != ref {
				c.fail(p.rackEpochs, "phase %d pass %d: sim digest %s differs from the plain entry point's %s", i, k, p.digest, ref)
			}
		}
	}
	res.Failed = min(c.failed, res.Attempted)
	res.Correct = c.failed == 0
	fmt.Fprintf(w, "digest %s (reference and every pass)\n", ref)
	for _, n := range c.notes {
		fmt.Fprintln(w, "check failed:", n)
	}
}

// rssPasses is the number of timed passes after which max_rss_mb is
// read. Every pass does the same work, so a fixed count of passes gives
// the program's peak without letting a faster program, which makes more
// passes in a run, meet more of the rare late overshoots of the Go
// heap: over ten 50-second rack runs read at the end, two of them
// peaked 1.5 and 3 MB above the others' 16.4–17.3 MB.
const rssPasses = 5

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, ph *phase, w io.Writer) {
	ep, q, n := ph.times, ph.epochs.q, ph.epochs.seen
	t := tail(ep, n)
	setups := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		setups[i] = float64(p.setupNs) / 1e9
	}
	s := ph.passes[0].sim
	put := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(w, "%-18s %16.6f %-10s %s\n", name, v, unit, note)
	}
	fmt.Fprintf(w, "passes=%d rack_epochs=%d epochs_timed=%d schedule_epochs=%d\n", len(ph.passes), ph.rackEpochs(), ph.epochs.timed, len(ep))
	fmt.Fprintf(w, "per-epoch p%g us", q)
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(w, " p%g=%.1f", p, float64(percentile(ep, p))/1e3)
	}
	fmt.Fprintf(w, " max=%.1f\n", float64(maxNs(ep))/1e3)
	put("rack_epochs_per_s", ph.throughput(), "1/s", fmt.Sprintf("host, after set-up, a pass of per-epoch p%g over %d passes", q, n))
	put("epoch_p50_us", centralMean(ep, 40, 60)/1e3, "us", fmt.Sprintf("host, mean of p40–p60 of %d per-epoch p%g over %d passes", len(ep), q, n))
	put("epoch_tail_us", float64(t.Value)/1e3, "us", fmt.Sprintf("host, p%g of %d per-epoch p%g, %d epochs × %d passes beyond", t.Pct, len(ep), q, t.Beyond, n))
	put("setup_s", medianF(setups), "s", fmt.Sprintf("host, median of %d set-ups", len(setups)))
	put("max_rss_mb", ph.rssMB, "MB", fmt.Sprintf("host, peak resident set by the end of pass %d", min(rssPasses, len(ph.passes))))
	put("sim_epu", s.epu, "fraction", "sim")
	put("sim_perf", s.perf, "throughput", "sim")
	put("sim_grid_kwh", s.gridKWh, "kWh", "sim")
	put("sim_served_frac", s.servedFrac, "fraction", "sim")
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, tr.dropped, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(o.traceOut, doc, 0o644)
}

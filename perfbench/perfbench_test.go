package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"greenhetero/internal/power"
	"greenhetero/internal/sim"
)

// tiny sizes each workload for a test: a few days of the rack, a few
// epochs of the healthy fleet, and the storm's own 48-epoch schedule.
var tiny = map[string]int{"rack-year-comb5": 2 * epochsPerDay, "fleet-1000": 4, "storm-1000": 0}

func tinyOptions(name string, traced bool, workers int) options {
	return options{
		workload: name,
		traced:   traced,
		settings: settings{
			seed:     42,
			epochs:   tiny[name],
			workers:  workers,
			scenario: filepath.Join("..", "scenarios", "storm-1000.json"),
		},
	}
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: every output check and digest comparison must pass, and every
// metric BENCHMARK.json names must be printed, and nothing else.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for name := range tiny {
		for _, traced := range []bool{false, true} {
			res, err := run(tinyOptions(name, traced, runtime.NumCPU()), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s missing or not finite (%v)", name, traced, m, v)
				}
			}
		}
	}
}

// TestFleetWorkerCountInvariant checks that the fleet outputs are
// identical with one worker and with one per CPU.
func TestFleetWorkerCountInvariant(t *testing.T) {
	for _, name := range []string{"fleet-1000", "storm-1000"} {
		var digests []string
		for _, workers := range []int{1, max(2, runtime.NumCPU())} {
			wl, err := newWorkload(name, tinyOptions(name, false, workers).settings)
			if err != nil {
				t.Fatal(err)
			}
			d, err := wl.reference()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at %d", name, digests[0], digests[1], max(2, runtime.NumCPU()))
		}
	}
}

// TestRackEpochChecks feeds the output checks epochs that break each
// invariant.
func TestRackEpochChecks(t *testing.T) {
	good := sim.EpochResult{
		Case: power.CaseB, RenewableW: 400, SupplyW: 900, GridW: 300, BatteryOutW: 200,
		Fractions: []float64{0.5, 0.3, 0.2}, Perf: 10, UsedW: 800, EPU: 0.89,
	}
	if ok, why := rackEpochOK(&good, 1000); !ok {
		t.Fatalf("valid epoch rejected: %s", why)
	}
	for name, mutate := range map[string]func(e *sim.EpochResult){
		"fractions sum above 1": func(e *sim.EpochResult) { e.Fractions = []float64{0.6, 0.5} },
		"negative fraction":     func(e *sim.EpochResult) { e.Fractions = []float64{-0.1, 0.5} },
		"NaN fraction":          func(e *sim.EpochResult) { e.Fractions = []float64{math.NaN()} },
		"EPU above 1":           func(e *sim.EpochResult) { e.EPU = 1.2 },
		"grid over budget":      func(e *sim.EpochResult) { e.GridW = 1500; e.SupplyW = 1000 },
		"supply over sources":   func(e *sim.EpochResult) { e.SupplyW = 1000 },
	} {
		e := good
		mutate(&e)
		if ok, _ := rackEpochOK(&e, 1000); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTail checks the tail percentile keeps at least ten timings
// behind the per-epoch medians beyond it.
func TestTail(t *testing.T) {
	xs := make([]int64, 2000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	got := tail(xs, 1)
	if got.Pct != 90 || got.Value != 1800 || got.Beyond != 200 {
		t.Errorf("tail of 2000 samples = %+v, want p90 = 1800 with 200 beyond", got)
	}
	if got := tail(xs[:50], 1); got.Pct != 50 {
		t.Errorf("tail of 50 single-pass medians = %+v, want the median fallback", got)
	}
	if got := tail(xs[:50], 2); got.Pct != 90 || got.Value != 45 || got.Beyond != 5 {
		t.Errorf("tail of 50 two-pass medians = %+v, want p90 = 45 with 5 beyond", got)
	}
	if got := centralMean(xs, 40, 60); got != 1000 {
		t.Errorf("p40–p60 mean of 1..2000 = %v, want 1000 (samples 800..1200)", got)
	}
}

// TestProfile checks the per-epoch percentiles over passes, and that
// the fastest-pass profile keeps no pass.
func TestProfile(t *testing.T) {
	runs := [][]int64{{5, 10}, {1, 30}, {3, 20}}
	med, fast := newProfile(50), newProfile(0)
	for _, xs := range runs {
		med.add(xs)
		fast.add(xs)
	}
	if got := med.times(); !slices.Equal(got, []int64{3, 20}) {
		t.Errorf("medians of three passes = %v, want [3 20]", got)
	}
	if got := fast.times(); !slices.Equal(got, []int64{1, 10}) {
		t.Errorf("fastest of three passes = %v, want [1 10]", got)
	}
	if len(fast.passes) != 0 || fast.seen != 3 || fast.timed != 6 {
		t.Errorf("fastest profile kept %d passes, saw %d passes and %d epochs; want 0, 3, 6", len(fast.passes), fast.seen, fast.timed)
	}
	med.add([]int64{2, 1})
	if got := med.times(); !slices.Equal(got, []int64{2, 10}) {
		t.Errorf("medians of four passes = %v, want the lower middle [2 10]", got)
	}
}

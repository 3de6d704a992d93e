package solver

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"greenhetero/internal/server"
	"greenhetero/internal/workload"
)

// truthModel builds a GroupModel from the ground-truth response surface.
func truthModel(t testing.TB, serverID, workloadID string, count int) GroupModel {
	t.Helper()
	s, err := server.Lookup(serverID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Lookup(workloadID)
	if err != nil {
		t.Fatal(err)
	}
	return GroupModel{
		Count:    count,
		IdleW:    s.IdleW,
		PeakEffW: workload.PeakEffW(s, w),
		Perf:     func(p float64) float64 { return workload.Perf(s, w, p) },
	}
}

func TestOptimizeValidation(t *testing.T) {
	good := truthModel(t, server.XeonE52620, workload.SPECjbb, 1)
	tests := []struct {
		name    string
		models  []GroupModel
		supply  float64
		wantErr error
	}{
		{"no groups", nil, 100, ErrNoGroups},
		{"four groups", []GroupModel{good, good, good, good}, 100, ErrTooManyGroups},
		{"zero supply", []GroupModel{good}, 0, ErrBadSupply},
		{"zero count", []GroupModel{{Count: 0, IdleW: 10, PeakEffW: 20, Perf: good.Perf}}, 100, ErrBadModel},
		{"nil perf", []GroupModel{{Count: 1, IdleW: 10, PeakEffW: 20}}, 100, ErrBadModel},
		{"inverted range", []GroupModel{{Count: 1, IdleW: 30, PeakEffW: 20, Perf: good.Perf}}, 100, ErrBadModel},
		{"nan supply", []GroupModel{good}, math.NaN(), ErrBadSupply},
		{"nan idle", []GroupModel{{Count: 1, IdleW: math.NaN(), PeakEffW: 20, Perf: good.Perf}}, 100, ErrBadModel},
		{"nan peak", []GroupModel{{Count: 1, IdleW: 10, PeakEffW: math.NaN(), Perf: good.Perf}}, 100, ErrBadModel},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Optimize(tt.models, tt.supply, Options{}); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
			var w Warm
			if _, err := w.Optimize(tt.models, tt.supply, Options{}); !errors.Is(err, tt.wantErr) {
				t.Errorf("warm err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCaseStudyOptimum(t *testing.T) {
	// §III-B: E5-2620 + i5-4460, SPECjbb, 220 W. The paper finds the
	// optimum near PAR ≈ 65 % to the Xeon, beating uniform by ≈1.5×.
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 1),
		truthModel(t, server.CoreI54460, workload.SPECjbb, 1),
	}
	res, err := Optimize(models, 220, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par := res.Fractions[0]
	if par < 0.60 || par > 0.72 {
		t.Errorf("optimal PAR = %v, want ≈ 0.65", par)
	}
	// Compare against uniform 50/50 on the truth.
	uniformPerf := models[0].Perf(110) + models[1].Perf(110)
	if gain := res.PredictedPerf / uniformPerf; gain < 1.3 || gain > 1.8 {
		t.Errorf("gain over uniform = %v, want ≈ 1.5", gain)
	}
}

func TestTrimSurplus(t *testing.T) {
	// Abundant supply: groups can't consume it all; the trimmed
	// fractions must sum below 1, freeing the rest for the battery.
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 1),
		truthModel(t, server.CoreI54460, workload.SPECjbb, 1),
	}
	res, err := Optimize(models, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, f := range res.Fractions {
		maxUseful := float64(models[i].Count) * models[i].PeakEffW / 1000
		if f > maxUseful+1e-9 {
			t.Errorf("group %d fraction %v exceeds useful %v", i, f, maxUseful)
		}
		sum += f
	}
	if sum > 0.5 {
		t.Errorf("fractions sum %v; most of 1000 W should be left for the battery", sum)
	}
	// Both groups saturated → predicted perf equals sum of maxima.
	s1, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Lookup(workload.SPECjbb)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.PerfMax(s1, w) + workload.PerfMax(s2, w)
	if math.Abs(res.PredictedPerf-want)/want > 0.01 {
		t.Errorf("predicted perf %v, want saturated %v", res.PredictedPerf, want)
	}
}

func TestStarvationBetterThanSpreading(t *testing.T) {
	// Supply so scarce that powering both groups leaves each below
	// idle: the solver must shut one out rather than waste everything.
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 1), // idle 88
		truthModel(t, server.CoreI54460, workload.SPECjbb, 1), // idle 47
	}
	res, err := Optimize(models, 90, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedPerf <= 0 {
		t.Fatalf("perf = %v; solver wasted all 90 W", res.PredictedPerf)
	}
	// 90 W can run either server alone but not both; the i5 at 79 W
	// effective peak delivers its full throughput.
	if res.Fractions[0] != 0 && res.Fractions[1] != 0 {
		t.Errorf("fractions = %v; expected one group shut out", res.Fractions)
	}
}

func TestThreeGroups(t *testing.T) {
	// Comb5: E5-2620 + E5-2603 + i5-4460 (§V-B.5).
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 2),
		truthModel(t, server.XeonE52603, workload.SPECjbb, 2),
		truthModel(t, server.CoreI54460, workload.SPECjbb, 2),
	}
	supply := 500.0
	res, err := Optimize(models, supply, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Must beat uniform allocation on the truth.
	uni, err := UniformFractions([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var uniPerf float64
	for i, m := range models {
		uniPerf += float64(m.Count) * m.Perf(uni[i]*supply/float64(m.Count))
	}
	if res.PredictedPerf < uniPerf {
		t.Errorf("solver %v worse than uniform %v", res.PredictedPerf, uniPerf)
	}
}

func TestFinerGridNoWorse(t *testing.T) {
	// Ablation invariant: a 1 % grid must never lose to Manual's 10 %.
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.Streamcluster, 5),
		truthModel(t, server.CoreI54460, workload.Streamcluster, 5),
	}
	for _, supply := range []float64{400, 700, 1000, 1300} {
		coarse, err := Optimize(models, supply, Options{GridStep: 0.10, RefinePasses: -1})
		if err != nil {
			t.Fatal(err)
		}
		fine, err := Optimize(models, supply, Options{GridStep: 0.01, RefinePasses: -1})
		if err != nil {
			t.Fatal(err)
		}
		if fine.PredictedPerf < coarse.PredictedPerf-1e-9 {
			t.Errorf("supply %v: fine %v < coarse %v", supply, fine.PredictedPerf, coarse.PredictedPerf)
		}
	}
}

func TestRefinementImproves(t *testing.T) {
	models := []GroupModel{
		truthModel(t, server.XeonE52620, workload.SPECjbb, 5),
		truthModel(t, server.CoreI54460, workload.SPECjbb, 5),
	}
	base, err := Optimize(models, 800, Options{GridStep: 0.10, RefinePasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Optimize(models, 800, Options{GridStep: 0.10, RefinePasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	if refined.PredictedPerf < base.PredictedPerf {
		t.Errorf("refinement regressed: %v < %v", refined.PredictedPerf, base.PredictedPerf)
	}
}

func TestUniformFractions(t *testing.T) {
	got, err := UniformFractions([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Errorf("UniformFractions = %v", got)
	}
	got, err = UniformFractions([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("UniformFractions = %v", got)
	}
	if _, err := UniformFractions(nil); !errors.Is(err, ErrNoGroups) {
		t.Errorf("err = %v", err)
	}
	if _, err := UniformFractions([]int{1, 0}); !errors.Is(err, ErrBadModel) {
		t.Errorf("err = %v", err)
	}
}

// Property: fractions are a sub-simplex point (all ≥ 0, sum ≤ 1 + ε) and
// the solver's choice is never worse than uniform, for random supplies
// and group pairs over the truth surfaces.
func TestQuickSolverDominatesUniform(t *testing.T) {
	specs := server.Catalog()
	wls := workload.Catalog()
	f := func(si1, si2, wi uint8, supplyRaw uint16, c1Raw, c2Raw uint8) bool {
		s1 := specs[int(si1)%5] // CPU specs only; GPU perf can be 0
		s2 := specs[int(si2)%5]
		if s1.ID == s2.ID {
			return true
		}
		w := wls[int(wi)%len(wls)]
		c1, c2 := int(c1Raw%3)+1, int(c2Raw%3)+1
		supply := float64(supplyRaw%2000) + 50
		models := []GroupModel{
			{Count: c1, IdleW: s1.IdleW, PeakEffW: workload.PeakEffW(s1, w),
				Perf: func(p float64) float64 { return workload.Perf(s1, w, p) }},
			{Count: c2, IdleW: s2.IdleW, PeakEffW: workload.PeakEffW(s2, w),
				Perf: func(p float64) float64 { return workload.Perf(s2, w, p) }},
		}
		res, err := Optimize(models, supply, Options{GridStep: 0.02})
		if err != nil {
			return false
		}
		var sum float64
		for _, fr := range res.Fractions {
			if fr < -1e-9 || fr > 1+1e-9 {
				return false
			}
			sum += fr
		}
		if sum > 1+1e-9 {
			return false
		}
		uni, err := UniformFractions([]int{c1, c2})
		if err != nil {
			return false
		}
		var uniPerf float64
		for i, m := range models {
			uniPerf += float64(m.Count) * m.Perf(uni[i]*supply/float64(m.Count))
		}
		return res.PredictedPerf >= uniPerf-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOptimizeTwoGroups(b *testing.B) {
	models := []GroupModel{
		truthModel(b, server.XeonE52620, workload.SPECjbb, 5),
		truthModel(b, server.CoreI54460, workload.SPECjbb, 5),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(models, 800, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeThreeGroups(b *testing.B) {
	models := []GroupModel{
		truthModel(b, server.XeonE52620, workload.SPECjbb, 2),
		truthModel(b, server.XeonE52603, workload.SPECjbb, 2),
		truthModel(b, server.CoreI54460, workload.SPECjbb, 2),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(models, 500, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

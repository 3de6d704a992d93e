package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"greenhetero/internal/fit"
	"greenhetero/internal/server"
)

func mustSpec(t *testing.T, id string) server.Spec {
	t.Helper()
	s, err := server.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustWorkload(t *testing.T, id string) Workload {
	t.Helper()
	w, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCatalogMatchesTable1(t *testing.T) {
	if got := len(Catalog()); got != 16 {
		t.Fatalf("catalog size = %d, want 16", got)
	}
	tests := []struct {
		id          string
		suite       Suite
		interactive bool
	}{
		{SPECjbb, SuiteSPEC, true},
		{WebSearch, SuiteCloudsuite, true},
		{Memcached, SuiteCloudsuite, true},
		{Streamcluster, SuitePARSEC, false},
		{Canneal, SuitePARSEC, false},
		{Mcf, SuiteSPECCPU, false},
		{SradV1, SuiteRodinia, false},
		{Cfd, SuiteRodinia, false},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			w := mustWorkload(t, tt.id)
			if w.Suite != tt.suite || w.Interactive != tt.interactive {
				t.Errorf("workload %+v mismatch", w)
			}
			if w.util <= 0 || w.util > 1 || w.gamma <= 0 || w.gamma > 1 {
				t.Errorf("%s: parameters out of range: util %v gamma %v", tt.id, w.util, w.gamma)
			}
		})
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("doom"); err == nil {
		t.Error("unknown lookup should error")
	}
}

func TestFigure9Set(t *testing.T) {
	set := Figure9Set()
	if len(set) != 12 {
		t.Fatalf("fig9 set = %d workloads, want 12", len(set))
	}
	var interactive, parsec, hpc int
	for _, w := range set {
		switch {
		case w.Interactive:
			interactive++
		case w.Suite == SuitePARSEC:
			parsec++
		case w.Suite == SuiteSPECCPU:
			hpc++
		}
	}
	if interactive != 3 || parsec != 8 || hpc != 1 {
		t.Errorf("composition = %d interactive / %d parsec / %d hpc, want 3/8/1", interactive, parsec, hpc)
	}
}

func TestComb6Set(t *testing.T) {
	set := Comb6Set()
	if len(set) != 4 {
		t.Fatalf("comb6 set = %d, want 4", len(set))
	}
	for _, w := range set {
		if !w.GPUCapable() {
			t.Errorf("%s in Comb6 set but not GPU capable", w.ID)
		}
	}
}

func TestPerfShape(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, SPECjbb)
	if got := Perf(s, w, s.IdleW-1); got != 0 {
		t.Errorf("perf below idle = %v, want 0", got)
	}
	peakEff := PeakEffW(s, w)
	max := PerfMax(s, w)
	if got := Perf(s, w, peakEff); math.Abs(got-max) > 1e-9 {
		t.Errorf("perf at peakEff = %v, want %v", got, max)
	}
	if got := Perf(s, w, s.PeakW+500); got != max {
		t.Errorf("perf above peak = %v, want saturated %v", got, max)
	}
	// Monotone increasing in the controllable band.
	prev := -1.0
	for p := s.IdleW; p <= peakEff; p += 2 {
		cur := Perf(s, w, p)
		if cur < prev {
			t.Fatalf("perf not monotone at %vW: %v < %v", p, cur, prev)
		}
		prev = cur
	}
}

func TestPeakEffMatchesCaseStudy(t *testing.T) {
	// §III-B measures ≈147 W and ≈81 W for SPECjbb on the two case-study
	// servers; the util parameter was calibrated to land near those.
	a := mustSpec(t, server.XeonE52620)
	b := mustSpec(t, server.CoreI54460)
	w := mustWorkload(t, SPECjbb)
	if got := PeakEffW(a, w); math.Abs(got-147) > 3 {
		t.Errorf("E5-2620 SPECjbb peakEff = %v, want ≈147", got)
	}
	if got := PeakEffW(b, w); math.Abs(got-79) > 3 {
		t.Errorf("i5-4460 SPECjbb peakEff = %v, want ≈79", got)
	}
}

func TestGPUAffinity(t *testing.T) {
	gpu := mustSpec(t, server.TitanXp)
	cpu := mustSpec(t, server.XeonE52620)
	// Srad_v1 strongly GPU-biased (drives Fig. 14's 4.6×).
	srad := mustWorkload(t, SradV1)
	if ratio := PerfMax(gpu, srad) / PerfMax(cpu, srad); ratio < 5 {
		t.Errorf("srad GPU/CPU ratio = %v, want ≥ 5", ratio)
	}
	// Cfd nearly indifferent (Fig. 14's smallest gain).
	cfd := mustWorkload(t, Cfd)
	if ratio := PerfMax(gpu, cfd) / PerfMax(cpu, cfd); ratio < 0.9 || ratio > 1.5 {
		t.Errorf("cfd GPU/CPU ratio = %v, want ≈ 1", ratio)
	}
	// No GPU port → zero GPU performance.
	jbb := mustWorkload(t, SPECjbb)
	if got := PerfMax(gpu, jbb); got != 0 {
		t.Errorf("SPECjbb on GPU = %v, want 0", got)
	}
	if got := Perf(gpu, jbb, 400); got != 0 {
		t.Errorf("SPECjbb Perf on GPU = %v, want 0", got)
	}
}

func TestUsedPowerW(t *testing.T) {
	s := mustSpec(t, server.CoreI54460)
	w := mustWorkload(t, Memcached)
	peakEff := PeakEffW(s, w)
	tests := []struct {
		name  string
		alloc float64
		want  float64
	}{
		{"below idle wasted", s.IdleW - 5, 0},
		{"at idle", s.IdleW, s.IdleW},
		{"mid band", (s.IdleW + peakEff) / 2, (s.IdleW + peakEff) / 2},
		{"surplus capped", s.PeakW, peakEff},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := UsedPowerW(s, w, tt.alloc); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("UsedPowerW(%v) = %v, want %v", tt.alloc, got, tt.want)
			}
		})
	}
}

func TestProfileSamples(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, SPECjbb)
	pl := NewPlant(s, w)
	full := NewLoad(1)
	rng := rand.New(rand.NewSource(1))
	samples := pl.Sweep(full, 5, 1, rng)
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	peakEff := PeakEffW(s, w)
	for i, smp := range samples {
		if smp.X < 0 || smp.Y < 0 {
			t.Errorf("sample %d negative: %+v", i, smp)
		}
		if smp.X > peakEff*1.1 {
			t.Errorf("sample %d power %v far above peakEff %v", i, smp.X, peakEff)
		}
	}
	// A one-sample sweep measures just above idle, not at a NaN power.
	one := pl.Sweep(full, 1, 1, rng)
	if len(one) != 1 || math.IsNaN(one[0].X) || one[0].X > (s.IdleW+1)*1.1 {
		t.Errorf("one-sample sweep = %+v, want one sample near %v W", one, s.IdleW+1)
	}
}

func TestMeasureAtTracksTruth(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, Streamcluster)
	rng := rand.New(rand.NewSource(2))
	p := (s.IdleW + PeakEffW(s, w)) / 2
	truth := Perf(s, w, p)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += Measure(p, truth, 1, w.Noise(), rng).Y
	}
	mean := sum / n
	if math.Abs(mean-truth)/truth > 0.02 {
		t.Errorf("noisy mean %v deviates from truth %v", mean, truth)
	}

	// The performance noise is drawn before the power noise, and the
	// noise factor scales both: the simulator's recorded runs depend on
	// this order.
	ref := rand.New(rand.NewSource(3))
	zPerf, zPower := ref.NormFloat64(), ref.NormFloat64()
	got := Measure(p, truth, 3, w.Noise(), rand.New(rand.NewSource(3)))
	want := fit.Sample{X: p * (1 + 3*0.01*zPower), Y: truth * (1 + 3*w.Noise()*zPerf)}
	if got != want {
		t.Errorf("Measure = %+v, want %+v", got, want)
	}
}

func TestEnergyEfficiencyOrdering(t *testing.T) {
	// For SPECjbb, the desktop i5 is more energy-efficient than the
	// 2-socket Xeon (drives GreenHetero-p's ordering in §V-B.2).
	a := mustSpec(t, server.XeonE52620)
	b := mustSpec(t, server.CoreI54460)
	w := mustWorkload(t, SPECjbb)
	effA := Perf(a, w, PeakEffW(a, w)) / PeakEffW(a, w)
	effB := Perf(b, w, PeakEffW(b, w)) / PeakEffW(b, w)
	if effB <= effA {
		t.Errorf("i5 efficiency %v ≤ Xeon %v", effB, effA)
	}
}

func TestSuiteString(t *testing.T) {
	names := map[Suite]string{
		SuiteSPEC: "SPEC", SuiteCloudsuite: "Cloudsuite", SuitePARSEC: "PARSEC",
		SuiteSPECCPU: "SPECCPU", SuiteRodinia: "Rodinia", Suite(99): "Suite(99)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: Perf is within [0, PerfMax] and monotone non-decreasing in
// power for every catalog (server, workload) pair.
func TestQuickPerfBoundsMonotone(t *testing.T) {
	specs := server.Catalog()
	wls := Catalog()
	f := func(si, wi uint8, p1Raw, p2Raw uint16) bool {
		s := specs[int(si)%len(specs)]
		w := wls[int(wi)%len(wls)]
		p1, p2 := float64(p1Raw%600), float64(p2Raw%600)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		max := PerfMax(s, w)
		v1, v2 := Perf(s, w, p1), Perf(s, w, p2)
		return v1 >= 0 && v2 <= max+1e-9 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: UsedPowerW never exceeds the allocation and is zero below idle.
func TestQuickUsedPowerBounds(t *testing.T) {
	specs := server.Catalog()
	wls := Catalog()
	f := func(si, wi uint8, pRaw uint16) bool {
		s := specs[int(si)%len(specs)]
		w := wls[int(wi)%len(wls)]
		p := float64(pRaw % 600)
		used := UsedPowerW(s, w, p)
		if p < s.IdleW {
			return used == 0
		}
		return used >= 0 && used <= p+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPerfEval(b *testing.B) {
	s, err := server.Lookup(server.XeonE52620)
	if err != nil {
		b.Fatal(err)
	}
	w, err := Lookup(SPECjbb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Perf(s, w, 120)
	}
}

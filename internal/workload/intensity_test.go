package workload

import (
	"math"
	"testing"
	"testing/quick"

	"greenhetero/internal/server"
)

func TestIntensityOneMatchesBase(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, SPECjbb)
	for p := 40.0; p <= 200; p += 10 {
		if got, want := PerfAt(s, w, p, 1), Perf(s, w, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("PerfAt(%v, 1) = %v, want %v", p, got, want)
		}
		if got, want := UsedPowerWAt(s, w, p, 1), UsedPowerW(s, w, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("UsedPowerWAt(%v, 1) = %v, want %v", p, got, want)
		}
	}
	if got, want := PeakEffWAt(s, w, 1), PeakEffW(s, w); math.Abs(got-want) > 1e-9 {
		t.Errorf("PeakEffWAt(1) = %v, want %v", got, want)
	}
}

func TestLowerIntensityLowersDemandAndPerf(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, SPECjbb)
	if PeakEffWAt(s, w, 0.5) >= PeakEffWAt(s, w, 1) {
		t.Error("lighter load should need less power")
	}
	// Saturated throughput falls with intensity.
	if PerfAt(s, w, s.PeakW, 0.5) >= PerfAt(s, w, s.PeakW, 1) {
		t.Error("lighter load should deliver less saturated throughput")
	}
	// But at a fixed scarce budget, light load reaches saturation sooner:
	// perf per watt can be better.
	p := s.IdleW + 0.2*s.DynamicRangeW()
	if PerfAt(s, w, p, 0.3) <= 0 {
		t.Error("light load at modest power should still run")
	}
}

func TestInvalidIntensity(t *testing.T) {
	s := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, SPECjbb)
	for _, i := range []float64{0, -0.5, 1.5} {
		if ValidIntensity(i) {
			t.Errorf("ValidIntensity(%v) = true", i)
		}
		if got := PerfAt(s, w, 120, i); got != 0 {
			t.Errorf("PerfAt(i=%v) = %v, want 0", i, got)
		}
		if got := UsedPowerWAt(s, w, 120, i); got != 0 {
			t.Errorf("UsedPowerWAt(i=%v) = %v, want 0", i, got)
		}
	}
}

// Property: at any valid intensity, PerfAt stays within [0, PerfMax] and
// is monotone in power.
func TestQuickPerfAtBounds(t *testing.T) {
	specs := server.Catalog()
	wls := Catalog()
	f := func(si, wi uint8, pRaw uint16, iRaw uint8) bool {
		s := specs[int(si)%len(specs)]
		w := wls[int(wi)%len(wls)]
		intensity := (float64(iRaw%100) + 1) / 100
		p1 := float64(pRaw % 600)
		p2 := p1 + 25
		v1 := PerfAt(s, w, p1, intensity)
		v2 := PerfAt(s, w, p2, intensity)
		return v1 >= 0 && v2 <= PerfMax(s, w)+1e-9 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// Property: wherever a server draws power, the truth at its metered draw
// has the bits of the truth at its budget (the draw is capped only past
// the effective peak, where the surface is flat). The simulator reuses
// one evaluation for both.
func TestQuickPerfAtUsedPowerMatchesBudget(t *testing.T) {
	specs := server.Catalog()
	wls := Catalog()
	f := func(si, wi uint8, pRaw uint16, iRaw uint8) bool {
		p := NewPlant(specs[int(si)%len(specs)], wls[int(wi)%len(wls)])
		l := NewLoad((float64(iRaw%100) + 1) / 100)
		budget := float64(pRaw%6000) / 10
		used := p.UsedPowerW(budget, l)
		return used == 0 || math.Float64bits(p.Perf(used, l)) == math.Float64bits(p.Perf(budget, l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

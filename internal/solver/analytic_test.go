package solver

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// quadFromModel adapts a QuadraticModel into a GroupModel for the grid
// search, so both solvers see the identical objective.
func quadFromModel(m QuadraticModel) GroupModel {
	return GroupModel{
		Count:    m.Count,
		IdleW:    m.IdleW,
		PeakEffW: m.PeakEffW,
		Perf:     m.eval,
	}
}

// caseStudyModels approximates the fig3 servers with concave quadratics
// fitted by hand: perf rises from 0 at idle to max at peakEff.
func caseStudyModels() (QuadraticModel, QuadraticModel) {
	// Xeon E5-2620: idle 88, peakEff 147. perf(p) = -a(p-88)(p-206):
	// concave, zero at idle, increasing through peakEff.
	m1 := QuadraticModel{Count: 1, IdleW: 88, PeakEffW: 147, A: -18128 * 0.001, B: 294 * 0.001, C: -0.001}
	// i5-4460: idle 47, peakEff 79.
	m2 := QuadraticModel{Count: 1, IdleW: 47, PeakEffW: 79, A: -5217 * 0.002, B: 158 * 0.002, C: -0.002}
	return m1, m2
}

func TestOptimizeQuadratic2Validation(t *testing.T) {
	m1, m2 := caseStudyModels()
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name    string
		mut     func(*QuadraticModel)
		supplyW float64
		want    error
	}{
		{"zero supply", nil, 0, ErrBadSupply},
		{"nan supply", nil, nan, ErrBadSupply},
		{"bad count", func(m *QuadraticModel) { m.Count = 0 }, 200, ErrBadModel},
		{"nan idle", func(m *QuadraticModel) { m.IdleW = nan }, 200, ErrBadModel},
		{"nan peak", func(m *QuadraticModel) { m.PeakEffW = nan }, 200, ErrBadModel},
		{"nan A", func(m *QuadraticModel) { m.A = nan }, 200, ErrBadModel},
		{"inf B", func(m *QuadraticModel) { m.B = inf }, 200, ErrBadModel},
		{"nan C", func(m *QuadraticModel) { m.C = nan }, 200, ErrBadModel},
		{"-inf C", func(m *QuadraticModel) { m.C = -inf }, 200, ErrBadModel},
		{"convex", func(m *QuadraticModel) { m.C = 0.5 }, 200, ErrNotConcave},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := m1
			if tt.mut != nil {
				tt.mut(&bad)
			}
			if res, err := OptimizeQuadratic2(bad, m2, tt.supplyW); !errors.Is(err, tt.want) {
				t.Errorf("OptimizeQuadratic2 = %+v, %v, want %v", res, err, tt.want)
			}
		})
	}
}

func TestAnalyticMatchesGridCaseStudy(t *testing.T) {
	m1, m2 := caseStudyModels()
	for _, supply := range []float64{100, 150, 220, 260, 400} {
		exact, err := OptimizeQuadratic2(m1, m2, supply)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := Optimize([]GroupModel{quadFromModel(m1), quadFromModel(m2)}, supply, Options{GridStep: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		if exact.PredictedPerf < grid.PredictedPerf-1e-6 {
			t.Errorf("supply %v: analytic %v below grid %v", supply, exact.PredictedPerf, grid.PredictedPerf)
		}
		// The grid should get within half a step of the analytic optimum.
		if grid.PredictedPerf < exact.PredictedPerf*0.995 {
			t.Errorf("supply %v: grid %v far below analytic %v", supply, grid.PredictedPerf, exact.PredictedPerf)
		}
	}
}

func TestAnalyticTinySupply(t *testing.T) {
	m1, m2 := caseStudyModels()
	res, err := OptimizeQuadratic2(m1, m2, 10) // below both idle floors
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedPerf != 0 {
		t.Errorf("perf = %v, want 0 when nothing can run", res.PredictedPerf)
	}
}

// Property: for random concave quadratics, the analytic solver never
// loses to the fine grid search (it is an upper bound up to the grid's
// resolution), and its fractions are feasible.
func TestQuickAnalyticDominatesGrid(t *testing.T) {
	f := func(b1Raw, b2Raw uint8, c1Raw, c2Raw uint8, supplyRaw uint16, n1Raw, n2Raw uint8) bool {
		// Build concave quadratics with zero value at idle:
		// perf(p) = B(p−idle) + C(p−idle)² with C ≤ 0 and perf
		// increasing over the band (B + 2C(peak−idle) ≥ 0).
		mk := func(idle, peak float64, bRaw, cRaw uint8, count int) QuadraticModel {
			span := peak - idle
			b := 1 + float64(bRaw)/16
			cMax := b / (2 * span) // keep increasing over the band
			c := -cMax * float64(cRaw) / 300
			// Expand (p−idle) terms into A + Bp + Cp².
			return QuadraticModel{
				Count:    count,
				IdleW:    idle,
				PeakEffW: peak,
				A:        -b*idle + c*idle*idle,
				B:        b - 2*c*idle,
				C:        c,
			}
		}
		m1 := mk(88, 147, b1Raw, c1Raw, int(n1Raw%3)+1)
		m2 := mk(47, 79, b2Raw, c2Raw, int(n2Raw%3)+1)
		supply := float64(supplyRaw%1200) + 30

		exact, err := OptimizeQuadratic2(m1, m2, supply)
		if err != nil {
			return false
		}
		grid, err := Optimize([]GroupModel{quadFromModel(m1), quadFromModel(m2)}, supply, Options{GridStep: 0.01})
		if err != nil {
			return false
		}
		if exact.PredictedPerf < grid.PredictedPerf-1e-6 {
			return false
		}
		var sum float64
		for _, fr := range exact.Fractions {
			if fr < -1e-9 {
				return false
			}
			sum += fr
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOptimizeQuadratic2(b *testing.B) {
	m1, m2 := caseStudyModels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeQuadratic2(m1, m2, 220); err != nil {
			b.Fatal(err)
		}
	}
}

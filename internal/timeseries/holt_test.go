package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHoltValidation(t *testing.T) {
	tests := []struct {
		name        string
		alpha, beta float64
		wantErr     bool
	}{
		{"valid mid", 0.5, 0.3, false},
		{"valid bounds", 0, 1, false},
		{"alpha low", -0.1, 0.5, true},
		{"alpha high", 1.1, 0.5, true},
		{"beta low", 0.5, -0.01, true},
		{"beta high", 0.5, 1.5, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewHolt(tt.alpha, tt.beta)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewHolt(%v, %v) err = %v, wantErr %v", tt.alpha, tt.beta, err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadSmoothing) {
				t.Errorf("err = %v, want ErrBadSmoothing", err)
			}
		})
	}
}

func TestForecastNotPrimed(t *testing.T) {
	h, err := NewHolt(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Forecast(); !errors.Is(err, ErrNotPrimed) {
		t.Errorf("Forecast before data: err = %v, want ErrNotPrimed", err)
	}
	h.Observe(10)
	if _, err := h.Forecast(); !errors.Is(err, ErrNotPrimed) {
		t.Errorf("Forecast after one obs: err = %v, want ErrNotPrimed", err)
	}
	h.Observe(12)
	if _, err := h.Forecast(); err != nil {
		t.Errorf("Forecast after two obs: err = %v, want nil", err)
	}
}

func TestLinearTrendIsExact(t *testing.T) {
	// A perfectly linear series must be predicted exactly for any α, β
	// once the level/trend are primed from the first two points.
	h, err := NewHolt(0.4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		o := 100 + 5*float64(i)
		if i >= 2 {
			p, err := h.Forecast()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p-o) > 1e-9 {
				t.Fatalf("step %d: forecast %v, want %v", i, p, o)
			}
		}
		h.Observe(o)
	}
}

func TestTrainRecoversGoodParams(t *testing.T) {
	// Noisy ramp: trained predictor should beat a naive last-value
	// predictor on one-step-ahead SSE.
	rng := rand.New(rand.NewSource(3))
	var history []float64
	for i := 0; i < 200; i++ {
		history = append(history, 50+2*float64(i)+rng.NormFloat64()*3)
	}
	res, err := Train(history)
	if err != nil {
		t.Fatal(err)
	}
	// Naive last-value predictor == Holt(1, 0).
	naive, err := SSE(history, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > naive {
		t.Errorf("trained SSE %v worse than naive %v", res.SSE, naive)
	}
	if res.Alpha < 0 || res.Alpha > 1 || res.Beta < 0 || res.Beta > 1 {
		t.Errorf("trained params out of range: %+v", res)
	}
}

func TestTrainTooShort(t *testing.T) {
	if _, err := Train([]float64{1, 2}); !errors.Is(err, ErrTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

// Property: for any observation sequence and valid parameters, the
// forecast is finite and the smoother never panics.
func TestQuickForecastFinite(t *testing.T) {
	f := func(raw []uint16, ai, bi uint8) bool {
		if len(raw) < 2 {
			return true
		}
		alpha := float64(ai) / 255
		beta := float64(bi) / 255
		h, err := NewHolt(alpha, beta)
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Observe(float64(r))
		}
		p, err := h.Forecast()
		return err == nil && !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a constant series is forecast exactly (level locks on, trend 0).
func TestQuickConstantSeries(t *testing.T) {
	f := func(v uint16, ai, bi uint8) bool {
		alpha := float64(ai) / 255
		beta := float64(bi) / 255
		h, err := NewHolt(alpha, beta)
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			h.Observe(float64(v))
		}
		p, err := h.Forecast()
		return err == nil && math.Abs(p-float64(v)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var history []float64
	for i := 0; i < 672; i++ { // one week at 15-min epochs
		history = append(history, 500+200*math.Sin(float64(i)/96*2*math.Pi)+rng.NormFloat64()*20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(history); err != nil {
			b.Fatal(err)
		}
	}
}

package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// diurnal builds a clean daily pattern: n days of a half-sine bell.
func diurnal(days, perDay int, peak float64) []float64 {
	out := make([]float64, 0, days*perDay)
	for d := 0; d < days; d++ {
		for i := 0; i < perDay; i++ {
			v := peak * math.Sin(math.Pi*float64(i)/float64(perDay))
			out = append(out, v*v/peak)
		}
	}
	return out
}

func TestNewHoltWintersValidation(t *testing.T) {
	if _, err := NewHoltWinters(1.5, 0.1, 0.1, 96); !errors.Is(err, ErrBadSmoothing) {
		t.Errorf("bad alpha err = %v", err)
	}
	if _, err := NewHoltWinters(0.5, 0.1, 0.1, 1); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("bad period err = %v", err)
	}
	h, err := NewHoltWinters(0.5, 0.1, 0.1, 96)
	if err != nil {
		t.Fatal(err)
	}
	if h.period != 96 {
		t.Errorf("period = %d", h.period)
	}
}

func TestForecastNeedsOneSeason(t *testing.T) {
	h, err := NewHoltWinters(0.5, 0.1, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.Observe(float64(i))
		if _, err := h.Forecast(); !errors.Is(err, ErrNotPrimed) {
			t.Fatalf("obs %d: err = %v, want ErrNotPrimed", i, err)
		}
	}
	h.Observe(3)
	if _, err := h.Forecast(); err != nil {
		t.Fatalf("after one season: %v", err)
	}
}

func TestSeasonalBeatsHoltOnDiurnalSeries(t *testing.T) {
	// On a strongly seasonal series (a solar day), Holt-Winters must
	// cut one-step-ahead SSE well below the double-exponential Holt —
	// the point of the extension.
	series := diurnal(5, 48, 1500)
	holt, err := Train(series)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := TrainSeasonal(series, 48)
	if err != nil {
		t.Fatal(err)
	}
	if hw.SSE >= holt.SSE {
		t.Errorf("seasonal SSE %v not below Holt %v", hw.SSE, holt.SSE)
	}
	if hw.SSE > holt.SSE*0.5 {
		t.Errorf("seasonal SSE %v should be well below Holt %v on a clean diurnal series", hw.SSE, holt.SSE)
	}
}

func TestSeasonalForecastTracksPattern(t *testing.T) {
	series := diurnal(4, 24, 1000)
	res, err := TrainSeasonal(series[:72], 24)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHoltWinters(res.Alpha, res.Beta, res.Gamma, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range series[:72] {
		h.Observe(o)
	}
	// Predict the fourth day one step at a time.
	var sumAbs, sumTruth float64
	for _, truth := range series[72:] {
		p, err := h.Forecast()
		if err != nil {
			t.Fatal(err)
		}
		sumAbs += math.Abs(p - truth)
		sumTruth += truth
		h.Observe(truth)
	}
	if sumAbs/sumTruth > 0.15 {
		t.Errorf("relative forecast error %v, want < 15%%", sumAbs/sumTruth)
	}
}

func TestTrainSeasonalValidation(t *testing.T) {
	if _, err := TrainSeasonal(make([]float64, 10), 1); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("bad period err = %v", err)
	}
	if _, err := TrainSeasonal(make([]float64, 10), 8); !errors.Is(err, ErrTooShort) {
		t.Errorf("short history err = %v", err)
	}
}

// Property: forecasts are finite and non-negative for any observation
// sequence (power series semantics).
func TestQuickSeasonalForecastFinite(t *testing.T) {
	f := func(raw []uint16, ai, bi, gi uint8) bool {
		if len(raw) < 8 {
			return true
		}
		h, err := NewHoltWinters(float64(ai)/255, float64(bi)/255, float64(gi)/255, 4)
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Observe(float64(r))
		}
		p, err := h.Forecast()
		return err == nil && !math.IsNaN(p) && !math.IsInf(p, 0) && p >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrainSeasonal(b *testing.B) {
	series := diurnal(3, 96, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSeasonal(series, 96); err != nil {
			b.Fatal(err)
		}
	}
}

package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEPU(t *testing.T) {
	tests := []struct {
		name           string
		used, supplied float64
		want           float64
	}{
		{"perfect", 220, 220, 1},
		{"uniform case study", 191, 220, 191.0 / 220},
		{"all to one server", 81, 220, 81.0 / 220},
		{"zero supply", 100, 0, 0},
		{"negative used", -5, 100, 0},
		{"overshoot clamped", 101, 100, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EPU(tt.used, tt.supplied); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("EPU(%v, %v) = %v, want %v", tt.used, tt.supplied, got, tt.want)
			}
		})
	}
}

func TestMeanGeoMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3})
	if err != nil || m != 2 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("Mean(nil) err = %v", err)
	}
}

// Property: EPU is always in [0, 1].
func TestQuickEPUBounds(t *testing.T) {
	f := func(used, supply int32) bool {
		e := EPU(float64(used), float64(supply))
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

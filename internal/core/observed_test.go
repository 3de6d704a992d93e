package core

import (
	"testing"

	"greenhetero/internal/workload"
)

// spyPredictor records what the controller feeds it.
type spyPredictor struct {
	observed []float64
}

func (s *spyPredictor) Observe(o float64)          { s.observed = append(s.observed, o) }
func (s *spyPredictor) Forecast() (float64, error) { return 500, nil }

// TestStaleObservationSkipsPredictors: a degraded epoch must plan and
// enforce, set Decision.Degraded, and leave the predictors untouched —
// replayed last-known-good values are not measurements.
func TestStaleObservationSkipsPredictors(t *testing.T) {
	cfg := testConfig(t)
	ren, dem := &spyPredictor{}, &spyPredictor{}
	cfg.RenewablePredictor = ren
	cfg.DemandPredictor = dem
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)

	fresh, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 900}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded {
		t.Error("fresh observation marked degraded")
	}
	if len(ren.observed) != 1 || len(dem.observed) != 1 {
		t.Fatalf("fresh epoch fed predictors %d/%d times, want 1/1", len(ren.observed), len(dem.observed))
	}

	stale, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 900, Stale: true}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Degraded {
		t.Error("stale observation not marked degraded")
	}
	if stale.Epoch != fresh.Epoch+1 {
		t.Errorf("stale epoch index = %d, want %d (degraded epochs still advance)", stale.Epoch, fresh.Epoch+1)
	}
	if len(stale.Fractions) == 0 {
		t.Error("degraded epoch produced no allocation")
	}
	if len(ren.observed) != 1 || len(dem.observed) != 1 {
		t.Errorf("stale epoch fed predictors (%d/%d observations), want untouched",
			len(ren.observed), len(dem.observed))
	}
}

// TestStepFreshObservation: an Observation that leaves Stale false is a
// fresh epoch, and its values are still validated.
func TestStepFreshObservation(t *testing.T) {
	ctrl, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, workload.SPECjbb)
	d, err := ctrl.Step(Observation{RenewableW: 600, DemandW: 900}, uniform(ctrl, w))
	if err != nil {
		t.Fatal(err)
	}
	if d.Degraded {
		t.Error("Step marked degraded")
	}
	if _, err := ctrl.Step(Observation{RenewableW: -1}, []workload.Workload{w, w}); err == nil {
		t.Error("negative observation should error")
	}
}

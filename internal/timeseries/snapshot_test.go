package timeseries

import (
	"math"
	"testing"
)

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHoltSnapshotRoundTrip: restoring a snapshot reproduces forecasts
// bit-for-bit, including after further observations.
func TestHoltSnapshotRoundTrip(t *testing.T) {
	a, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []float64{100, 120, 90, 140, 135.5, 128.25} {
		a.Observe(o)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fa, err := a.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(fa, fb) {
		t.Errorf("restored forecast %v != original %v", fb, fa)
	}
	// Continue both streams: they must stay identical.
	for _, o := range []float64{111, 99.75, 150} {
		a.Observe(o)
		b.Observe(o)
	}
	fa, _ = a.Forecast()
	fb, _ = b.Forecast()
	if !bitsEq(fa, fb) || !bitsEq(a.trend, b.trend) {
		t.Errorf("post-restore streams diverged: %v vs %v", fb, fa)
	}
}

// TestHoltSnapshotUnprimed: a fresh predictor's snapshot restores to a
// fresh predictor.
func TestHoltSnapshotUnprimed(t *testing.T) {
	a, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Forecast(); err == nil {
		t.Error("unprimed restore produced a forecast")
	}
}

// TestHoltRestoreRejections: parameter-fingerprint mismatches and
// corrupt payloads are refused.
func TestHoltRestoreRejections(t *testing.T) {
	a, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(10)
	a.Observe(20)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewHolt(0.5, 0.2) // different alpha
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("restore across different parameters accepted")
	}
	same, err := NewHolt(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore([]byte("{")); err == nil {
		t.Error("garbage payload accepted")
	}
	if err := same.Restore([]byte(`{"alpha":0.4,"beta":0.2,"primed":-1}`)); err == nil {
		t.Error("negative primed accepted")
	}
	if err := same.Restore([]byte(`{"alpha":0.4,"beta":0.2,"level":1e999}`)); err == nil {
		t.Error("out-of-range level accepted")
	}
}

// TestHoltWintersSnapshotRoundTrip: the seasonal model round-trips too,
// including the seasonal index array.
func TestHoltWintersSnapshotRoundTrip(t *testing.T) {
	const period = 4
	a, err := NewHoltWinters(0.3, 0.1, 0.2, period)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{10, 20, 30, 15, 12, 22, 33, 16, 11, 21, 31, 14}
	for _, o := range obs {
		a.Observe(o)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewHoltWinters(0.3, 0.1, 0.2, period)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fa, ea := a.Forecast()
	fb, eb := b.Forecast()
	if (ea == nil) != (eb == nil) {
		t.Fatalf("forecast error mismatch: %v vs %v", ea, eb)
	}
	if ea == nil && !bitsEq(fa, fb) {
		t.Errorf("restored forecast %v != original %v", fb, fa)
	}
	// Continue both streams through a full season: still identical.
	for _, o := range []float64{13, 23, 32, 15} {
		a.Observe(o)
		b.Observe(o)
	}
	fa, _ = a.Forecast()
	fb, _ = b.Forecast()
	if !bitsEq(fa, fb) {
		t.Errorf("post-restore streams diverged: %v vs %v", fb, fa)
	}

	// Wrong period is a fingerprint mismatch.
	c, err := NewHoltWinters(0.3, 0.1, 0.2, period+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(snap); err == nil {
		t.Error("restore across different period accepted")
	}
}

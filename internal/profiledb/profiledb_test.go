package profiledb

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"greenhetero/internal/fit"
	"greenhetero/internal/server"
	"greenhetero/internal/workload"
)

var testKey = Key{ServerID: "e5-2620", WorkloadID: "specjbb"}

// trainingSamples produces samples from a known concave truth.
func trainingSamples(n int, noise float64, seed int64) []fit.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fit.Sample, 0, n)
	for i := 0; i < n; i++ {
		p := 90 + float64(i)*(57.0/float64(n-1)) // 90..147 W
		perf := 1000 * math.Sqrt((p-88)/59)
		out = append(out, fit.Sample{X: p, Y: perf * (1 + noise*rng.NormFloat64())})
	}
	return out
}

func mustTrain(t *testing.T, db *DB, k Key) {
	t.Helper()
	if err := db.AddTrainingRun(k, 88, 147, trainingSamples(5, 0.02, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestLookupNotFound(t *testing.T) {
	db := New()
	if _, err := db.Lookup(testKey); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestAddTrainingRunAndPredict(t *testing.T) {
	db := New()
	mustTrain(t, db, testKey)
	e, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	// Clamping semantics.
	if got := e.Predict(50); got != 0 {
		t.Errorf("Predict below idle = %v, want 0", got)
	}
	if got, want := e.Predict(300), e.Predict(147); got != want {
		t.Errorf("Predict above peakEff = %v, want constant %v", got, want)
	}
	// Projection should be close to the truth mid-range.
	truth := 1000 * math.Sqrt((120.0-88)/59)
	if got := e.Predict(120); math.Abs(got-truth)/truth > 0.15 {
		t.Errorf("Predict(120) = %v, truth %v", got, truth)
	}
}

func TestAddTrainingRunValidation(t *testing.T) {
	db := New()
	if err := db.AddTrainingRun(Key{}, 88, 147, trainingSamples(5, 0, 1)); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty key err = %v", err)
	}
	if err := db.AddTrainingRun(testKey, 0, 147, trainingSamples(5, 0, 1)); !errors.Is(err, ErrBadEntry) {
		t.Errorf("zero idle err = %v", err)
	}
	if err := db.AddTrainingRun(testKey, 150, 147, trainingSamples(5, 0, 1)); !errors.Is(err, ErrBadEntry) {
		t.Errorf("inverted range err = %v", err)
	}
	if err := db.AddTrainingRun(testKey, 88, 147, nil); !errors.Is(err, ErrFit) {
		t.Errorf("no samples err = %v", err)
	}
}

func TestLinearFallbackWithFewSamples(t *testing.T) {
	db := New()
	samples := []fit.Sample{{X: 90, Y: 100}, {X: 120, Y: 500}, {X: 147, Y: 900}}
	if err := db.AddTrainingRun(testKey, 88, 147, samples); err != nil {
		t.Fatal(err)
	}
	e, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Curve.Coeffs) != 2 {
		t.Errorf("coefficients = %v, want a linear fallback", e.Curve.Coeffs)
	}
}

func TestFeedbackImprovesFit(t *testing.T) {
	// Start from a sparse noisy training run, then add accurate feedback:
	// the refitted projection must get closer to the truth.
	db := New()
	if err := db.AddTrainingRun(testKey, 88, 147, trainingSamples(5, 0.25, 7)); err != nil {
		t.Fatal(err)
	}
	truth := func(p float64) float64 { return 1000 * math.Sqrt((p-88)/59) }
	errAt := func(e Entry) float64 {
		var sum float64
		for p := 95.0; p <= 145; p += 10 {
			sum += math.Abs(e.Predict(p) - truth(p))
		}
		return sum
	}
	before, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := db.AddFeedback(testKey, trainingSamples(8, 0.01, int64(10+i))...); err != nil {
			t.Fatal(err)
		}
	}
	after, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if errAt(after) >= errAt(before) {
		t.Errorf("feedback did not improve fit: before %v after %v", errAt(before), errAt(after))
	}
	if after.Refits != 6 {
		t.Errorf("refits = %d, want 6", after.Refits)
	}
}

func TestFeedbackNotFound(t *testing.T) {
	db := New()
	err := db.AddFeedback(testKey, fit.Sample{X: 100, Y: 10})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestFeedbackEmptyIsNoop(t *testing.T) {
	db := New()
	if err := db.AddFeedback(testKey); err != nil {
		t.Errorf("empty feedback should be a no-op, got %v", err)
	}
}

func TestSampleWindowEviction(t *testing.T) {
	db := New()
	mustTrain(t, db, testKey)
	for i := 0; i < maxSamples/4+2; i++ {
		if err := db.AddFeedback(testKey, trainingSamples(4, 0.01, int64(i))...); err != nil {
			t.Fatal(err)
		}
	}
	e, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Samples) != maxSamples {
		t.Errorf("retained %d samples, want %d", len(e.Samples), maxSamples)
	}
}

func TestPredictNegativeFloored(t *testing.T) {
	e := Entry{IdleW: 88, PeakEffW: 147, Curve: fit.Poly{Coeffs: []float64{-1000, 0, 0}}}
	if got := e.Predict(100); got != 0 {
		t.Errorf("Predict = %v, want floored 0", got)
	}
}

func TestEnergyEfficiency(t *testing.T) {
	db := New()
	mustTrain(t, db, testKey)
	e, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Predict(147) / 147
	if got := e.EnergyEfficiency(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EnergyEfficiency = %v, want %v", got, want)
	}
	zero := Entry{}
	if zero.EnergyEfficiency() != 0 {
		t.Error("zero entry efficiency should be 0")
	}
}

func TestKeysSorted(t *testing.T) {
	db := New()
	keys := []Key{
		{ServerID: "b", WorkloadID: "y"},
		{ServerID: "a", WorkloadID: "z"},
		{ServerID: "a", WorkloadID: "x"},
	}
	for _, k := range keys {
		if err := db.AddTrainingRun(k, 50, 100, []fit.Sample{{X: 55, Y: 1}, {X: 80, Y: 2}, {X: 99, Y: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	// Save writes entries in key order, so a snapshot does not depend on
	// map iteration.
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	want := []Key{{ServerID: "a", WorkloadID: "x"}, {ServerID: "a", WorkloadID: "z"}, {ServerID: "b", WorkloadID: "y"}}
	if len(snap.Entries) != len(want) {
		t.Fatalf("saved %d entries, want %d", len(snap.Entries), len(want))
	}
	for i := range want {
		if snap.Entries[i].Key != want[i] {
			t.Fatalf("saved entry %d key %v, want %v", i, snap.Entries[i].Key, want[i])
		}
	}
	if db.Len() != 3 {
		t.Errorf("Len = %d, want 3", db.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	mustTrain(t, db, testKey)
	other := Key{ServerID: "i5-4460", WorkloadID: "memcached"}
	if err := db.AddTrainingRun(other, 47, 62, []fit.Sample{{X: 48, Y: 10}, {X: 55, Y: 40}, {X: 60, Y: 55}, {X: 62, Y: 60}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got := New()
	if err := got.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", got.Len())
	}
	e1, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := got.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	for p := 90.0; p <= 147; p += 10 {
		if math.Abs(e1.Predict(p)-e2.Predict(p)) > 1e-9 {
			t.Errorf("Predict(%v) differs after round trip", p)
		}
	}
}

func TestLoadRejectsBadData(t *testing.T) {
	if err := New().RestoreFrom(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("bad json should error")
	}
	if err := New().RestoreFrom(bytes.NewReader([]byte(`{"entries":[{"key":{}}]}`))); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty key err = %v", err)
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	db := New()
	mustTrain(t, db, testKey)
	e, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	e.Samples[0].Y = -999
	e.Curve.Coeffs[0] = -999
	e2, err := db.Lookup(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Samples[0].Y == -999 || e2.Curve.Coeffs[0] == -999 {
		t.Error("Lookup must return a deep copy")
	}
}

func TestConcurrentAccess(t *testing.T) {
	// Monitor goroutines write feedback while schedulers read; run with
	// -race to verify.
	db := New()
	specs := server.Catalog()
	wls := workload.Catalog()
	for _, s := range specs[:3] {
		for _, w := range wls[:3] {
			k := Key{ServerID: s.ID, WorkloadID: w.ID}
			if err := db.AddTrainingRun(k, s.IdleW, workload.PeakEffW(s, w), trainingSamples(5, 0.05, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := Key{ServerID: specs[g%3].ID, WorkloadID: wls[g%3].ID}
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					_ = db.AddFeedback(k, trainingSamples(3, 0.05, int64(i))...)
				} else {
					if e, err := db.Lookup(k); err == nil {
						_ = e.Predict(100)
					}
					_ = db.Save(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRefit(b *testing.B) {
	db := New()
	if err := db.AddTrainingRun(testKey, 88, 147, trainingSamples(5, 0.05, 1)); err != nil {
		b.Fatal(err)
	}
	fb := trainingSamples(3, 0.05, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AddFeedback(testKey, fb...); err != nil {
			b.Fatal(err)
		}
	}
}

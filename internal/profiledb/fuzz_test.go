package profiledb

import (
	"bytes"
	"testing"

	"greenhetero/internal/fit"
)

// FuzzLoad hardens the database decoder behind RestoreFrom: malformed
// snapshots must error or produce a usable store — never panic, never
// corrupt Predict — and a restored entry must take feedback: one
// AddFeedback per entry may fail to refit, but must not panic, and
// must leave at most maxSamples samples.
func FuzzLoad(f *testing.F) {
	// Seed with a real snapshot.
	db := New()
	if err := db.AddTrainingRun(Key{ServerID: "s", WorkloadID: "w"}, 50, 100,
		trainingSamples(5, 0.01, 1)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"entries":[{"key":{"serverId":"a","workloadId":"b"},"idleW":1,"peakEffW":2}]}`))
	f.Add([]byte(`{"entries":[{"key":{}}]}`))
	f.Add([]byte(`garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded := New()
		if err := loaded.RestoreFrom(bytes.NewReader(data)); err != nil {
			return
		}
		for k := range loaded.entries {
			e, err := loaded.Lookup(k)
			if err != nil {
				t.Fatalf("listed key %v not loadable: %v", k, err)
			}
			// Predict must not panic anywhere in a plausible range.
			for p := 0.0; p <= 500; p += 50 {
				if v := e.Predict(p); v < 0 {
					t.Fatalf("negative prediction %v", v)
				}
			}
			_ = loaded.AddFeedback(k, fit.Sample{X: (e.IdleW + e.PeakEffW) / 2, Y: 1})
			after, err := loaded.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Samples) > maxSamples {
				t.Fatalf("%v: %d samples after feedback, cap %d", k, len(after.Samples), maxSamples)
			}
		}
	})
}

package profiledb

import (
	"bytes"
	"testing"
)

// FuzzLoad hardens the database decoder behind RestoreFrom: malformed
// snapshots must error or produce a usable store — never panic, never
// corrupt Predict.
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
		}
	})
}

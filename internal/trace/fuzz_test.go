package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV hardens the CSV decoder against malformed input: it must
// either return an error or a trace that passes Validate — never panic.
func FuzzReadCSV(f *testing.F) {
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,1.5\n")
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,1.5\n1,2021-06-01T00:15:00Z,2\n")
	f.Add("")
	f.Add("a,b\n1,2\n")
	f.Add("index,timestamp,value\n0,notatime,1\n")
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,NaNb\n")
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,NaN\n")
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,-1\n")
	f.Add("index,timestamp,value\n0,2021-06-01T00:00:00Z,+Inf\n")
	f.Add("index,timestamp,value\n\"0,2021")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data), "fuzz", 15*time.Minute)
		if err != nil {
			return
		}
		if tr.Step != 15*time.Minute {
			t.Fatalf("step = %v", tr.Step)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		// A successfully parsed trace must round-trip through WriteCSV.
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("write after read: %v", err)
		}
	})
}

// FuzzJSONRoundTrip hardens the JSON codec: every trace it accepts
// passes Validate and marshals again.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add([]byte(`{"name":"x","start":"2021-06-01T00:00:00Z","stepMillis":900000,"values":[1,2,3]}`))
	f.Add([]byte(`{"stepMillis":0}`))
	f.Add([]byte(`{"stepMillis":1000,"values":[1,-2]}`))
	f.Add([]byte(`{"stepMillis":9223372036854775807,"values":[1]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		if err := tr.UnmarshalJSON(data); err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		if _, err := tr.MarshalJSON(); err != nil {
			t.Fatalf("marshal after unmarshal: %v", err)
		}
	})
}

package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, values []float64) *Trace {
	t.Helper()
	tr, err := New("test", t0, 15*time.Minute, values)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", t0, 0, nil); !errors.Is(err, ErrBadStep) {
		t.Errorf("err = %v, want ErrBadStep", err)
	}
	if _, err := New("x", t0, -time.Second, nil); !errors.Is(err, ErrBadStep) {
		t.Errorf("err = %v, want ErrBadStep", err)
	}
}

// TestValidate pins a trace's rule table: a positive step and finite,
// non-negative samples. An empty trace is valid and reads as 0 W.
func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		step   time.Duration
		values []float64
		want   error
	}{
		{"ok", 15 * time.Minute, []float64{0, 1.5, 700}, nil},
		{"negative zero", time.Minute, []float64{math.Copysign(0, -1)}, nil},
		{"empty", time.Minute, nil, nil},
		{"zero step", 0, []float64{1}, ErrBadStep},
		{"negative step", -time.Second, nil, ErrBadStep},
		{"NaN", time.Minute, []float64{1, math.NaN()}, ErrBadSample},
		{"+Inf", time.Minute, []float64{math.Inf(1)}, ErrBadSample},
		{"-Inf", time.Minute, []float64{math.Inf(-1)}, ErrBadSample},
		{"negative", time.Minute, []float64{3, -1}, ErrBadSample},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := &Trace{Step: tt.step, Values: tt.values}
			if err := tr.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
			if _, err := New("x", t0, tt.step, tt.values); !errors.Is(err, tt.want) {
				t.Errorf("New err = %v, want %v", err, tt.want)
			}
		})
	}
	empty := &Trace{Step: time.Minute}
	if err := empty.Validate(); err != nil || empty.At(3) != 0 {
		t.Errorf("empty trace: Validate() = %v, At(3) = %v; want valid and 0", err, empty.At(3))
	}
}

// TestCodecsValidate: both decoders reject a trace Validate rejects.
func TestCodecsValidate(t *testing.T) {
	for _, v := range []string{"NaN", "-1", "+Inf"} {
		csv := "index,timestamp,value\n0,2021-06-01T00:00:00Z," + v + "\n"
		if _, err := ReadCSV(strings.NewReader(csv), "x", time.Minute); !errors.Is(err, ErrBadSample) {
			t.Errorf("ReadCSV sample %s: err = %v, want ErrBadSample", v, err)
		}
	}
	var got Trace
	err := json.Unmarshal([]byte(`{"name":"x","stepMillis":1000,"values":[1,-2]}`), &got)
	if !errors.Is(err, ErrBadSample) {
		t.Errorf("JSON negative sample: err = %v, want ErrBadSample", err)
	}
}

func TestNewCopiesValues(t *testing.T) {
	src := []float64{1, 2, 3}
	tr := mustNew(t, src)
	src[0] = 99
	if tr.Values[0] != 1 {
		t.Error("New must copy its input slice")
	}
}

func TestTimeAtAndDuration(t *testing.T) {
	tr := mustNew(t, []float64{1, 2, 3, 4})
	if got := tr.TimeAt(2); !got.Equal(t0.Add(30 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
	if got := tr.Duration(); got != time.Hour {
		t.Errorf("Duration() = %v, want 1h", got)
	}
}

func TestAtClamping(t *testing.T) {
	tr := mustNew(t, []float64{10, 20, 30})
	tests := []struct {
		i    int
		want float64
	}{{-5, 10}, {0, 10}, {1, 20}, {2, 30}, {99, 30}}
	for _, tt := range tests {
		if got := tr.At(tt.i); got != tt.want {
			t.Errorf("At(%d) = %v, want %v", tt.i, got, tt.want)
		}
	}
	empty := mustNew(t, nil)
	if got := empty.At(0); got != 0 {
		t.Errorf("empty At(0) = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	// New rejects a negative sample; Summarize itself takes any values.
	tr := &Trace{Name: "test", Start: t0, Step: 15 * time.Minute, Values: []float64{4, -2, 10}}
	s, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != -2 || s.Max != 10 || s.N != 3 || math.Abs(s.Mean-4) > 1e-12 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := mustNew(t, nil).Summarize(); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mustNew(t, []float64{0.5, 1.25, 700})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "test", 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || !got.Start.Equal(tr.Start) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, tr)
	}
	for i := range tr.Values {
		if got.Values[i] != tr.Values[i] {
			t.Errorf("value[%d] = %v, want %v", i, got.Values[i], tr.Values[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,notatime,2\n"), "x", time.Minute); err == nil {
		t.Error("bad timestamp should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2021-06-01T00:00:00Z,xyz\n"), "x", time.Minute); err == nil {
		t.Error("bad value should error")
	}
	if _, err := ReadCSV(strings.NewReader(""), "x", 0); !errors.Is(err, ErrBadStep) {
		t.Error("bad step should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := mustNew(t, []float64{1, 2, 3})
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Step != tr.Step || !got.Start.Equal(tr.Start) {
		t.Errorf("round trip metadata mismatch: %+v", got)
	}
	if len(got.Values) != 3 || got.Values[2] != 3 {
		t.Errorf("round trip values mismatch: %v", got.Values)
	}
}

func TestJSONBadStep(t *testing.T) {
	var got Trace
	err := json.Unmarshal([]byte(`{"name":"x","start":"2021-06-01T00:00:00Z","stepMillis":0,"values":[]}`), &got)
	if !errors.Is(err, ErrBadStep) {
		t.Errorf("err = %v, want ErrBadStep", err)
	}
}

// Package trace provides the timestamped power series type shared by the
// solar generator, the rack-demand models, and the experiment harness,
// plus CSV/JSON codecs and resampling helpers.
//
// A Trace is a uniformly-sampled series: a start time, a fixed step, and
// one float64 value per step. The paper's traces (NREL solar irradiance,
// rack demand) are 15-minute series, but the step is configurable.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Trace is a uniformly-sampled time series.
type Trace struct {
	// Name labels the series (e.g. "solar-high").
	Name string
	// Start is the timestamp of Values[0].
	Start time.Time
	// Step is the sampling interval; must be positive.
	Step time.Duration
	// Values holds one sample per step.
	Values []float64
}

var (
	// ErrBadStep is returned when a non-positive step is supplied.
	ErrBadStep = errors.New("trace: step must be positive")
	// ErrEmpty is returned for operations that need at least one sample.
	ErrEmpty = errors.New("trace: empty trace")
	// ErrBadSample is returned for a NaN, infinite or negative sample.
	ErrBadSample = errors.New("trace: sample must be finite and non-negative")
)

// New constructs a trace and validates it.
func New(name string, start time.Time, step time.Duration, values []float64) (*Trace, error) {
	v := make([]float64, len(values))
	copy(v, values)
	t := &Trace{Name: name, Start: start, Step: step, Values: v}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate is a trace's one rule table: a positive step, and every
// sample finite and non-negative (a power series has no negative or
// undefined watts). An empty trace is valid; At reads it as 0.
func (t *Trace) Validate() error {
	if t.Step <= 0 {
		return fmt.Errorf("%w: %v", ErrBadStep, t.Step)
	}
	for i, v := range t.Values {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("%w: sample %d is %v", ErrBadSample, i, v)
		}
	}
	return nil
}

// Len reports the number of samples.
func (t *Trace) Len() int { return len(t.Values) }

// Duration reports the covered time span (Len × Step).
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Values)) * t.Step
}

// TimeAt returns the timestamp of sample i.
func (t *Trace) TimeAt(i int) time.Time {
	return t.Start.Add(time.Duration(i) * t.Step)
}

// At returns the sample value at index i, clamping the index into range;
// it returns 0 for an empty trace. Clamped access keeps replay loops
// simple when an experiment runs slightly past the trace end.
func (t *Trace) At(i int) float64 {
	if len(t.Values) == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i >= len(t.Values) {
		i = len(t.Values) - 1
	}
	return t.Values[i]
}

// Stats summarizes a trace.
type Stats struct {
	Min, Max, Mean float64
	N              int
}

// Summarize computes min/max/mean.
func (t *Trace) Summarize() (Stats, error) {
	if len(t.Values) == 0 {
		return Stats{}, ErrEmpty
	}
	s := Stats{Min: t.Values[0], Max: t.Values[0], N: len(t.Values)}
	var sum float64
	for _, v := range t.Values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(s.N)
	return s, nil
}

// WriteCSV writes "index,timestamp,value" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "timestamp", "value"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, v := range t.Values {
		rec := []string{
			strconv.Itoa(i),
			t.TimeAt(i).UTC().Format(time.RFC3339),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV. Name and step must be
// supplied by the caller (CSV stores timestamps, not metadata).
func ReadCSV(r io.Reader, name string, step time.Duration) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	tr := &Trace{Name: name, Step: step}
	for i, row := range rows[min(1, len(rows)):] {
		if len(row) != 3 {
			return nil, fmt.Errorf("trace: row %d: want 3 fields, got %d", i, len(row))
		}
		if i == 0 {
			ts, err := time.Parse(time.RFC3339, row[1])
			if err != nil {
				return nil, fmt.Errorf("trace: row %d timestamp: %w", i, err)
			}
			tr.Start = ts
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d value: %w", i, err)
		}
		tr.Values = append(tr.Values, v)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(rows) < 1 {
		return nil, ErrEmpty
	}
	return tr, nil
}

// traceJSON is the stable wire form of a Trace.
type traceJSON struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	StepMillis int64     `json:"stepMillis"`
	Values     []float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler with an explicit step unit.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceJSON{
		Name:       t.Name,
		Start:      t.Start,
		StepMillis: t.Step.Milliseconds(),
		Values:     t.Values,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var tj traceJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return fmt.Errorf("trace: unmarshal: %w", err)
	}
	tr := Trace{
		Name:   tj.Name,
		Start:  tj.Start,
		Step:   time.Duration(tj.StepMillis) * time.Millisecond,
		Values: tj.Values,
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	*t = tr
	return nil
}

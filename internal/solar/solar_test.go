package solar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero peak", Config{Profile: High, Days: 1, Step: time.Minute}},
		{"NaN peak", Config{Profile: High, PeakWatts: math.NaN(), Days: 1, Step: time.Minute}},
		{"+Inf peak", Config{Profile: High, PeakWatts: math.Inf(1), Days: 1, Step: time.Minute}},
		{"zero days", Config{Profile: High, PeakWatts: 100, Step: time.Minute}},
		{"zero step", Config{Profile: High, PeakWatts: 100, Days: 1}},
		{"bad profile", Config{PeakWatts: 100, Days: 1, Step: time.Minute}},
		{"step over a day", Config{Profile: High, PeakWatts: 100, Days: 1, Step: 48 * time.Hour}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	tr, err := DefaultHigh(2000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), 7*96; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	// Night samples (midnight ± ) must be zero; midday must be positive.
	for day := 0; day < 7; day++ {
		base := day * 96
		if v := tr.Values[base]; v != 0 {
			t.Errorf("day %d midnight = %v, want 0", day, v)
		}
		if v := tr.Values[base+48]; v <= 0 { // 12:00
			t.Errorf("day %d noon = %v, want > 0", day, v)
		}
	}
	s, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Max > 2000 {
		t.Errorf("max %v exceeds panel peak", s.Max)
	}
	if s.Min < 0 {
		t.Errorf("negative generation %v", s.Min)
	}
}

func TestHighExceedsLow(t *testing.T) {
	hi, err := DefaultHigh(2000)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := DefaultLow(2000)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := hi.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	sl, err := lo.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sh.Mean <= sl.Mean {
		t.Errorf("high mean %v ≤ low mean %v", sh.Mean, sl.Mean)
	}
	if sh.Max <= sl.Max {
		t.Errorf("high max %v ≤ low max %v", sh.Max, sl.Max)
	}
}

func TestLowIsMoreVolatile(t *testing.T) {
	// The Low trace must show more relative step-to-step fluctuation
	// during daylight (that's what drives the extra battery activity in
	// Fig. 11).
	vol := func(vals []float64) float64 {
		var sum float64
		var n int
		for i := 1; i < len(vals); i++ {
			if vals[i] > 0 && vals[i-1] > 0 {
				d := vals[i] - vals[i-1]
				m := (vals[i] + vals[i-1]) / 2
				sum += math.Abs(d) / m
				n++
			}
		}
		return sum / float64(n)
	}
	hi, err := DefaultHigh(2000)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := DefaultLow(2000)
	if err != nil {
		t.Fatal(err)
	}
	if vol(lo.Values) <= vol(hi.Values) {
		t.Errorf("low volatility %v ≤ high volatility %v", vol(lo.Values), vol(hi.Values))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Profile: Low, PeakWatts: 1500, Days: 3, Step: 15 * time.Minute, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestProfileString(t *testing.T) {
	if High.String() != "high" || Low.String() != "low" {
		t.Errorf("String: %v %v", High, Low)
	}
	if Profile(9).String() != "Profile(9)" {
		t.Errorf("unknown String = %v", Profile(9))
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("high")
	if err != nil || p != High {
		t.Errorf("ParseProfile(high) = %v, %v", p, err)
	}
	p, err = ParseProfile("low")
	if err != nil || p != Low {
		t.Errorf("ParseProfile(low) = %v, %v", p, err)
	}
	if _, err := ParseProfile("wind"); err == nil {
		t.Error("ParseProfile(wind) should error")
	}
}

// Property: generation is always within [0, peak] and zero at night for
// any seed and profile.
func TestQuickBounds(t *testing.T) {
	f := func(seed int64, profRaw bool) bool {
		prof := High
		if profRaw {
			prof = Low
		}
		tr, err := Generate(Config{Profile: prof, PeakWatts: 1000, Days: 2, Step: 15 * time.Minute, Seed: seed})
		if err != nil {
			return false
		}
		for i, v := range tr.Values {
			if v < 0 || v > 1000 {
				return false
			}
			hour := float64(i%96) / 4
			if (hour < 6 || hour > 19) && v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateWeek(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultHigh(2000); err != nil {
			b.Fatal(err)
		}
	}
}

// Package solar generates synthetic photovoltaic power traces standing in
// for the NREL Measurement and Instrumentation Data Center irradiance
// traces used in the paper (§V-A.2): one-week series at 15-minute
// resolution, in a "High" variant (clear, high-generation days, as in
// Fig. 8) and a "Low" variant (weaker and much more fluctuating
// generation, as in Fig. 11).
//
// The generator composes a deterministic diurnal irradiance bell with
// seeded day-level weather attenuation and intra-day cloud transients, so
// traces are reproducible from (profile, seed, panel capacity).
package solar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"greenhetero/internal/trace"
)

// Profile selects a generation pattern.
type Profile int

const (
	// High reproduces the high-level generation trace of Fig. 8:
	// mostly clear days, smooth bells, few transients.
	High Profile = iota + 1
	// Low reproduces the low-level generation trace of Fig. 11: weaker
	// peak output and frequent cloud-induced dips.
	Low
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case High:
		return "high"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ParseProfile maps "high"/"low" to a Profile.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "high":
		return High, nil
	case "low":
		return Low, nil
	default:
		return 0, fmt.Errorf("solar: unknown profile %q", s)
	}
}

// ErrBadConfig is returned by Generate for invalid configurations.
var ErrBadConfig = errors.New("solar: bad config")

// Config parameterizes trace generation.
type Config struct {
	// Profile selects High or Low generation.
	Profile Profile
	// PeakWatts is the PV array's rated output under full irradiance.
	PeakWatts float64
	// Days is the trace length in days (the paper uses 7).
	Days int
	// Step is the sampling interval (the paper uses 15 minutes).
	Step time.Duration
	// Seed makes the weather reproducible.
	Seed int64
	// Start is the timestamp of the first sample; zero means
	// 2021-06-01T00:00Z (midsummer, matching long solar days).
	Start time.Time
}

// defaultStart anchors traces deterministically when Start is zero.
var defaultStart = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

// profileParams are the per-profile weather characteristics.
type profileParams struct {
	// clearness is the mean day-level attenuation (1 = fully clear).
	clearness float64
	// clearnessJitter is the day-to-day spread of attenuation.
	clearnessJitter float64
	// cloudRate is the per-sample probability of a cloud transient.
	cloudRate float64
	// cloudDepth is the mean fractional output drop during a transient.
	cloudDepth float64
	// peakScale derates the array's usable peak for the profile.
	peakScale float64
}

func paramsFor(p Profile) (profileParams, error) {
	switch p {
	case High:
		return profileParams{
			clearness:       0.95,
			clearnessJitter: 0.05,
			cloudRate:       0.02,
			cloudDepth:      0.25,
			peakScale:       1.0,
		}, nil
	case Low:
		return profileParams{
			clearness:       0.60,
			clearnessJitter: 0.20,
			cloudRate:       0.18,
			cloudDepth:      0.55,
			peakScale:       0.70,
		}, nil
	default:
		return profileParams{}, fmt.Errorf("%w: unknown profile %v", ErrBadConfig, int(p))
	}
}

// Generate produces a PV power trace in watts.
func Generate(cfg Config) (*trace.Trace, error) {
	if cfg.PeakWatts <= 0 || math.IsNaN(cfg.PeakWatts) || math.IsInf(cfg.PeakWatts, 0) {
		return nil, fmt.Errorf("%w: peakWatts %v", ErrBadConfig, cfg.PeakWatts)
	}
	if cfg.Days < 1 {
		return nil, fmt.Errorf("%w: days %d", ErrBadConfig, cfg.Days)
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("%w: step %v", ErrBadConfig, cfg.Step)
	}
	pp, err := paramsFor(cfg.Profile)
	if err != nil {
		return nil, err
	}
	start := cfg.Start
	if start.IsZero() {
		start = defaultStart
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perDay := int(24 * time.Hour / cfg.Step)
	if perDay < 1 {
		return nil, fmt.Errorf("%w: step %v longer than a day", ErrBadConfig, cfg.Step)
	}
	values := make([]float64, 0, perDay*cfg.Days)

	const (
		sunriseHour = 6.0
		sunsetHour  = 19.0
	)
	for day := 0; day < cfg.Days; day++ {
		// Day-level attenuation: one weather draw per day.
		clear := pp.clearness + rng.NormFloat64()*pp.clearnessJitter
		clear = clamp(clear, 0.05, 1)
		// Cloud transients decay over a few samples.
		cloud := 0.0
		for i := 0; i < perDay; i++ {
			hour := float64(i) * cfg.Step.Hours()
			bell := diurnal(hour, sunriseHour, sunsetHour)
			if rng.Float64() < pp.cloudRate {
				cloud = pp.cloudDepth * (0.5 + rng.Float64())
			}
			cloud *= 0.6 // transient decay
			atten := clear * (1 - clamp(cloud, 0, 0.95))
			p := cfg.PeakWatts * pp.peakScale * bell * atten
			if p < 0 {
				p = 0
			}
			values = append(values, p)
		}
	}

	name := fmt.Sprintf("solar-%s", cfg.Profile)
	return trace.New(name, start, cfg.Step, values)
}

// diurnal returns the normalized irradiance bell at the given hour of day:
// 0 outside [sunrise, sunset], a squared half-sine inside (the squared
// shape approximates the measured irradiance curves better than a plain
// half-sine near sunrise/sunset).
//
// ghlint:units hour=h sunrise=h sunset=h result=frac
func diurnal(hour, sunrise, sunset float64) float64 {
	if hour <= sunrise || hour >= sunset {
		return 0
	}
	x := (hour - sunrise) / (sunset - sunrise)
	s := math.Sin(math.Pi * x)
	return s * s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DefaultHigh returns the one-week High trace used throughout the
// experiments: 15-minute resolution, the given panel peak watts, seed 1.
func DefaultHigh(peakWatts float64) (*trace.Trace, error) {
	return Generate(Config{Profile: High, PeakWatts: peakWatts, Days: 7, Step: 15 * time.Minute, Seed: 1})
}

// DefaultLow returns the one-week Low trace counterpart (seed 2).
func DefaultLow(peakWatts float64) (*trace.Trace, error) {
	return Generate(Config{Profile: Low, PeakWatts: peakWatts, Days: 7, Step: 15 * time.Minute, Seed: 2})
}

// Package workload models the evaluation workloads of Table I and, for
// each (server, workload) pair, a hidden ground-truth performance-vs-power
// response surface that stands in for real hardware.
//
// The GreenHetero controller never reads these surfaces directly: it sees
// only noisy profiled samples (Sample), fits its own quadratic
// projections, and optimizes against those — exactly as the paper's
// prototype profiles real servers with external power meters. The
// simulator, in contrast, evaluates policies on the hidden truth.
//
// Response-surface model, per (server s, workload w):
//
//	peakEffW  = idle(s) + util(w) · (peak(s) − idle(s))
//	perf(p)   = 0                                  for p < idle(s)
//	          = perfMax(s,w) · x^gamma(w)          for idle ≤ p < peakEff,
//	            where x = (p − idle)/(peakEff − idle)
//	          = perfMax(s,w)                        for p ≥ peakEffW
//
// util captures how much of the server's dynamic power range the workload
// can drive (Twitter-style interactive services sit far below 100 % CPU,
// §III-C); gamma captures the concavity of the power/performance return;
// perfMax captures the server's capability on that workload, including
// GPU affinity for the Rodinia kernels (§V-B.5).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"greenhetero/internal/server"
)

// Suite identifies the originating benchmark suite (Table I).
type Suite int

const (
	// SuiteSPEC is SPECjbb.
	SuiteSPEC Suite = iota + 1
	// SuiteCloudsuite holds the scale-out cloud services.
	SuiteCloudsuite
	// SuitePARSEC holds the emerging shared-memory workloads.
	SuitePARSEC
	// SuiteSPECCPU holds the HPC workloads (Mcf).
	SuiteSPECCPU
	// SuiteRodinia holds the GPU-CPU heterogeneous computing kernels.
	SuiteRodinia
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	switch s {
	case SuiteSPEC:
		return "SPEC"
	case SuiteCloudsuite:
		return "Cloudsuite"
	case SuitePARSEC:
		return "PARSEC"
	case SuiteSPECCPU:
		return "SPECCPU"
	case SuiteRodinia:
		return "Rodinia"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Workload describes one Table I workload and its response parameters.
type Workload struct {
	// ID is a stable identifier, e.g. "specjbb".
	ID string
	// Name is the display name, e.g. "SPECjbb".
	Name string
	// Suite is the originating benchmark suite.
	Suite Suite
	// Metric names the performance unit (jops, ops, rps, ips).
	Metric string
	// Interactive marks tail-latency-constrained services.
	Interactive bool

	// util is the fraction of a server's dynamic power range the
	// workload drives at full intensity.
	util float64
	// gamma is the concavity of the power→performance response.
	gamma float64
	// par is the parallelism exponent used for CPU capability.
	par float64
	// gpuSpeedup is perfMax on the Titan Xp relative to the E5-2620;
	// 0 means the workload has no GPU implementation.
	gpuSpeedup float64
	// noise is the relative σ of profiled performance measurements.
	noise float64
}

// Gamma reports the response concavity parameter.
func (w Workload) Gamma() float64 { return w.gamma }

// GPUCapable reports whether the workload has a GPU implementation.
func (w Workload) GPUCapable() bool { return w.gpuSpeedup > 0 }

// Noise reports the relative measurement noise σ.
func (w Workload) Noise() float64 { return w.noise }

// Catalog IDs.
const (
	SPECjbb          = "specjbb"
	WebSearch        = "web-search"
	Memcached        = "memcached"
	Streamcluster    = "streamcluster"
	Freqmine         = "freqmine"
	Blackscholes     = "blackscholes"
	Bodytrack        = "bodytrack"
	Swaptions        = "swaptions"
	Vips             = "vips"
	X264             = "x264"
	Canneal          = "canneal"
	Mcf              = "mcf"
	SradV1           = "srad_v1"
	Particlefilter   = "particlefilter"
	Cfd              = "cfd"
	StreamclusterRod = "streamcluster-rodinia"
)

// catalog reproduces Table I with the reproduction's response parameters.
// The parameters were chosen so the policy comparison shapes of the
// paper's Figs. 9/10/14 hold: Streamcluster is near-linear and highly
// parallel (largest reallocation gain), Memcached drives little dynamic
// power and saturates early (smallest gain), Canneal has low util so
// oblivious allocations overshoot its effective peak (largest EPU gain),
// Srad_v1 is strongly GPU-biased while Cfd runs about as fast either way.
var catalog = []Workload{
	{ID: SPECjbb, Name: "SPECjbb", Suite: SuiteSPEC, Metric: "jops (99%-ile 500ms)", Interactive: true,
		util: 0.66, gamma: 0.70, par: 0.85, noise: 0.04},
	{ID: WebSearch, Name: "Web-search", Suite: SuiteCloudsuite, Metric: "ops (90%-ile 500ms)", Interactive: true,
		util: 0.62, gamma: 0.45, par: 0.80, noise: 0.06},
	{ID: Memcached, Name: "Memcached", Suite: SuiteCloudsuite, Metric: "rps (95%-ile 10ms)", Interactive: true,
		util: 0.30, gamma: 0.30, par: 0.30, noise: 0.05},
	{ID: Streamcluster, Name: "Streamcluster", Suite: SuitePARSEC, Metric: "ips",
		util: 0.95, gamma: 0.95, par: 0.95, gpuSpeedup: 5.0, noise: 0.04},
	{ID: Freqmine, Name: "Freqmine", Suite: SuitePARSEC, Metric: "ips",
		util: 0.85, gamma: 0.80, par: 0.90, noise: 0.04},
	{ID: Blackscholes, Name: "Blackscholes", Suite: SuitePARSEC, Metric: "ips",
		util: 0.90, gamma: 0.85, par: 0.92, noise: 0.03},
	{ID: Bodytrack, Name: "Bodytrack", Suite: SuitePARSEC, Metric: "ips",
		util: 0.80, gamma: 0.75, par: 0.85, noise: 0.05},
	{ID: Swaptions, Name: "Swaptions", Suite: SuitePARSEC, Metric: "ips",
		util: 0.92, gamma: 0.88, par: 0.95, noise: 0.03},
	{ID: Vips, Name: "Vips", Suite: SuitePARSEC, Metric: "ips",
		util: 0.75, gamma: 0.70, par: 0.88, noise: 0.04},
	{ID: X264, Name: "X264", Suite: SuitePARSEC, Metric: "ips",
		util: 0.88, gamma: 0.78, par: 0.90, noise: 0.05},
	{ID: Canneal, Name: "Canneal", Suite: SuitePARSEC, Metric: "ips",
		util: 0.42, gamma: 0.60, par: 0.70, noise: 0.05},
	{ID: Mcf, Name: "Mcf", Suite: SuiteSPECCPU, Metric: "ips",
		util: 0.60, gamma: 0.55, par: 0.45, noise: 0.04},
	{ID: SradV1, Name: "Srad_v1", Suite: SuiteRodinia, Metric: "ips",
		util: 0.90, gamma: 0.85, par: 0.90, gpuSpeedup: 9.0, noise: 0.04},
	{ID: Particlefilter, Name: "Particlefilter", Suite: SuiteRodinia, Metric: "ips",
		util: 0.85, gamma: 0.80, par: 0.88, gpuSpeedup: 4.0, noise: 0.05},
	{ID: Cfd, Name: "Cfd", Suite: SuiteRodinia, Metric: "ips",
		util: 0.88, gamma: 0.82, par: 0.90, gpuSpeedup: 1.15, noise: 0.04},
	{ID: StreamclusterRod, Name: "Streamcluster (Rodinia)", Suite: SuiteRodinia, Metric: "ips",
		util: 0.95, gamma: 0.95, par: 0.95, gpuSpeedup: 5.0, noise: 0.04},
}

// Catalog returns a copy of the Table I workload catalog.
func Catalog() []Workload {
	out := make([]Workload, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup finds a catalog workload by ID.
func Lookup(id string) (Workload, error) {
	for _, w := range catalog {
		if w.ID == id {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", id)
}

// Figure9Set returns the 12 workloads evaluated in Figs. 9/10: three
// interactive services, eight PARSEC workloads, and one HPC workload.
func Figure9Set() []Workload {
	ids := []string{
		SPECjbb, WebSearch, Memcached,
		Streamcluster, Freqmine, Blackscholes, Bodytrack,
		Swaptions, Vips, X264, Canneal,
		Mcf,
	}
	out := make([]Workload, len(ids))
	for i, id := range ids {
		w, err := Lookup(id)
		if err != nil {
			// Catalog IDs are compile-time constants; absence is a
			// programming error.
			panic(err)
		}
		out[i] = w
	}
	return out
}

// Comb6Set returns the GPU-platform workloads of Table IV / Fig. 14.
func Comb6Set() []Workload {
	ids := []string{StreamclusterRod, SradV1, Particlefilter, Cfd}
	out := make([]Workload, len(ids))
	for i, id := range ids {
		w, err := Lookup(id)
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}

// referenceCap is the CPU capability of the Xeon E5-2620, used as the GPU
// speedup baseline. Computed lazily per workload.
func referenceCap(w Workload) float64 {
	ref, err := server.Lookup(server.XeonE52620)
	if err != nil {
		panic(err) // catalog constant
	}
	return cpuCap(ref, w)
}

// cpuCap is the parametric CPU capability model:
// perfFactor · cores^par · freqGHz.
func cpuCap(s server.Spec, w Workload) float64 {
	factor := s.PerfFactor
	if factor <= 0 {
		factor = 1
	}
	return factor * math.Pow(float64(s.Cores), w.par) * s.BaseFreqMHz / 1000
}

// PerfMax returns the saturated throughput of workload w on server s, in
// the workload's metric units. GPU servers return 0 for workloads with no
// GPU implementation.
func PerfMax(s server.Spec, w Workload) float64 {
	const unitScale = 100 // arbitrary metric units per capability point
	switch s.Class {
	case server.ClassGPU:
		if w.gpuSpeedup <= 0 {
			return 0
		}
		return unitScale * w.gpuSpeedup * referenceCap(w)
	default:
		return unitScale * cpuCap(s, w)
	}
}

// PeakEffW returns the effective peak power draw of workload w on server
// s: the paper's "server power demand" for that workload, which can sit
// well below the nameplate peak for low-utilization services.
func PeakEffW(s server.Spec, w Workload) float64 {
	return s.IdleW + w.util*s.DynamicRangeW()
}

// Perf evaluates the hidden ground-truth response surface: throughput of
// workload w on one server s drawing allocated power powerW.
func Perf(s server.Spec, w Workload, powerW float64) float64 {
	if powerW < s.IdleW {
		return 0
	}
	max := PerfMax(s, w)
	if max == 0 {
		return 0
	}
	peakEff := PeakEffW(s, w)
	if powerW >= peakEff {
		return max
	}
	x := (powerW - s.IdleW) / (peakEff - s.IdleW)
	return max * math.Pow(x, w.gamma)
}

// UsedPowerW returns the power the server actually consumes when
// allocated powerW while running w: zero below idle (the server cannot
// start), capped at the workload's effective peak above it. The surplus
// (allocated − used) is the waste EPU charges against a policy.
func UsedPowerW(s server.Spec, w Workload, powerW float64) float64 {
	if powerW < s.IdleW {
		return 0
	}
	peakEff := PeakEffW(s, w)
	if powerW > peakEff {
		return peakEff
	}
	return powerW
}

// Sample is one profiled (power, performance) observation as the Monitor
// would report it: the ground truth perturbed by measurement noise.
type Sample struct {
	PowerW float64
	Perf   float64
}

// ErrNoRNG is returned when Profile is called without a random source.
var ErrNoRNG = errors.New("workload: nil RNG")

// Profile generates n noisy profiling samples for (s, w) spread across
// the controllable power range, emulating the paper's 2-minute training
// run measurements. Noise is multiplicative Gaussian with the workload's
// σ on performance and 1 % on power metering.
func Profile(s server.Spec, w Workload, n int, rng *rand.Rand) ([]Sample, error) {
	if rng == nil {
		return nil, ErrNoRNG
	}
	if n < 2 {
		return nil, fmt.Errorf("workload: need ≥2 samples, got %d", n)
	}
	peakEff := PeakEffW(s, w)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		// Sweep from just above idle to effective peak.
		frac := float64(i) / float64(n-1)
		p := s.IdleW + 1 + frac*(peakEff-s.IdleW-1)
		out = append(out, MeasureAt(s, w, p, rng))
	}
	return out, nil
}

// MeasureAt returns one noisy observation of (s, w) at allocated power p.
func MeasureAt(s server.Spec, w Workload, p float64, rng *rand.Rand) Sample {
	perf := Perf(s, w, p)
	perfNoisy := perf * (1 + w.noise*rng.NormFloat64())
	if perfNoisy < 0 {
		perfNoisy = 0
	}
	powerNoisy := p * (1 + 0.01*rng.NormFloat64())
	if powerNoisy < 0 {
		powerNoisy = 0
	}
	return Sample{PowerW: powerNoisy, Perf: perfNoisy}
}

// EnergyEfficiency returns throughput per watt at the workload's
// effective peak — the ranking key used by the GreenHetero-p policy.
func EnergyEfficiency(s server.Spec, w Workload) float64 {
	peakEff := PeakEffW(s, w)
	if peakEff <= 0 {
		return 0
	}
	return Perf(s, w, peakEff) / peakEff
}

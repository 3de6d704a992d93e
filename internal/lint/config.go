package lint

import "strings"

// modulePath is the import-path prefix of this repository's packages.
const modulePath = "greenhetero"

// deterministicCore lists the packages whose results must be a pure
// function of their inputs: no wall clock, no global RNG, no
// environment, no CPU-count dependence. These are the packages the
// serial-vs-parallel equivalence proof (internal/runner, DESIGN §5a)
// and every golden experiment table stand on.
//
// internal/runner itself is included: it is the determinism contract's
// enforcement point, and its single legitimate CPU-count read
// (DefaultParallelism) carries a reasoned suppression directive.
var deterministicCore = map[string]bool{
	"sim":         true,
	"experiments": true,
	"policy":      true,
	"solver":      true,
	"cluster":     true,
	"scenario":    true,
	"profiledb":   true,
	"fit":         true,
	"solar":       true,
	"workload":    true,
	"battery":     true,
	"power":       true,
	"core":        true,
	"cost":        true,
	// Beyond the canonical list: pure-compute packages that feed the
	// same deterministic results.
	"runner":     true,
	"server":     true,
	"enforcer":   true,
	"timeseries": true,
	// wal: crash recovery must replay identically on every boot, and the
	// CrashFS's torn-write/survival choices are DeriveSeed-keyed — the
	// package has no business reading clocks or global randomness.
	"wal": true,
	// chaos: a storm's stress report must be byte-identical for a fixed
	// seed at any parallelism; every random choice (cascade victims,
	// jitter, crashpoints) flows from DeriveSeed-keyed streams spent at
	// engine build time.
	"chaos": true,
	// breaker: the circuit breaker both the fleet's per-rack quarantine
	// and the Monitor's per-agent health run on; its transitions are
	// counted in epochs, never in wall time.
	"breaker": true,
}

// wallClockAllowed lists the packages that legitimately face the wall
// clock, the environment, or live hardware, and are therefore exempt
// from the determinism and seedflow analyzers: the telemetry transport,
// the live-node agent, the daemon, operational metrics, the trace
// loader (which stamps ingestion timestamps), and the fault-injection
// proxy (its schedules are seeded, but its transport faces real
// sockets and timeouts).
var wallClockAllowed = map[string]bool{
	"telemetry": true,
	"livenode":  true,
	"daemon":    true,
	"metrics":   true,
	"trace":     true,
	"faultnet":  true,
}

// backpressureScope lists the packages under the bounded-concurrency
// contract (chanbound): the telemetry plane, which must hold up at
// 10k-agent scale, and the daemon that hosts it. Channels here
// must declare their capacity policy and sends must prove an escape;
// the rest of the repo opts in as its concurrency structure migrates.
var backpressureScope = map[string]bool{
	"telemetry": true,
	"daemon":    true,
}

// pkgKey reduces an import path to the name it is classified under:
// "greenhetero/internal/sim" → "sim". Paths outside this module's
// internal tree (cmd/, examples/, the root package, other modules)
// return "" and are never classified as core.
func pkgKey(importPath string) string {
	rest, ok := strings.CutPrefix(importPath, modulePath+"/internal/")
	if !ok {
		return ""
	}
	// Only direct children of internal/ are classified.
	if strings.Contains(rest, "/") {
		return ""
	}
	return rest
}

// IsDeterministicCore reports whether the package at importPath belongs
// to the deterministic core (and is not explicitly wall-clock-allowed).
func IsDeterministicCore(importPath string) bool {
	k := pkgKey(importPath)
	return deterministicCore[k] && !wallClockAllowed[k]
}

// approvedFloatEqHelpers names functions inside which exact float
// equality is the point — epsilon/equality helpers and ULP tricks. The
// floateq analyzer does not report comparisons lexically inside a
// function (or method) with one of these names.
var approvedFloatEqHelpers = map[string]bool{
	"approxEqual": true,
	"approxEq":    true,
	"almostEqual": true,
	"AlmostEqual": true,
	"EqualWithin": true,
	"eqWithin":    true,
	"floatEq":     true,
}

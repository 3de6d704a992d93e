package lint_test

import (
	"testing"

	"greenhetero/internal/lint"
	"greenhetero/internal/lint/linttest"
)

// corePath puts fixtures in deterministic-core scope for the
// package-gated analyzers.
const corePath = "greenhetero/internal/sim"

func TestDeterminismAnalyzer(t *testing.T) {
	linttest.Run(t, lint.DeterminismAnalyzer, corePath,
		"determinism/determinism.go", "determinism/dotimport.go")
}

func TestSeedflowAnalyzer(t *testing.T) {
	linttest.Run(t, lint.SeedflowAnalyzer, corePath, "seedflow/seedflow.go")
}

// TestUnitsAnalyzer proves the dimension-flow engine end to end:
// suffix and annotation seeding, malformed-annotation findings, static
// and interface call-boundary mismatches, laundering through neutral
// parameters, locals, and fields, the multiplicative conversion
// triangle staying silent, and reasoned suppression.
func TestUnitsAnalyzer(t *testing.T) {
	linttest.Run(t, lint.UnitsAnalyzer, corePath, "units/units.go")
}

// TestUnitsKeepsUnitsafetyFixtureGreen pins the retirement contract:
// the old local analyzer's fixture passes unchanged wants under the
// interprocedural engine — every mix it caught is still caught, every
// legal conversion is still silent.
func TestUnitsKeepsUnitsafetyFixtureGreen(t *testing.T) {
	linttest.Run(t, lint.UnitsAnalyzer, corePath, "unitsafety/unitsafety.go")
}

// TestUnitsLaunderRegression replays the laundering shape that
// motivated the engine (a W value read into a neutral local, then
// handed to a helper that adds it to a Wh value) and proves units
// reports it: a suffix-only check sees nothing there.
func TestUnitsLaunderRegression(t *testing.T) {
	linttest.Run(t, lint.UnitsAnalyzer, corePath, "units/launder.go")
}

// TestChanboundAnalyzer proves the bounded-concurrency contract:
// capacity-less makes, sends without an escape, select default and
// cancellation escapes, mayblock contracts, and dead or reasonless
// directives.
func TestChanboundAnalyzer(t *testing.T) {
	linttest.Run(t, lint.ChanboundAnalyzer, "greenhetero/internal/telemetry", "chanbound/chanbound.go")
}

// TestChanboundGatedOutsideScope verifies the backpressure-scope gate:
// the same violation-dense fixture loaded under a deterministic-core
// path must produce nothing — the contract binds telemetry and daemon
// only until the rest of the repo migrates.
func TestChanboundGatedOutsideScope(t *testing.T) {
	pkg, err := lint.LoadFiles(corePath, "testdata/chanbound/chanbound.go")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, d := range lint.RunPackage(pkg, []*lint.Analyzer{lint.ChanboundAnalyzer}) {
		t.Errorf("unexpected diagnostic outside the backpressure scope: [%s] %s", d.Analyzer, d.Message)
	}
}

func TestFloateqAnalyzer(t *testing.T) {
	linttest.Run(t, lint.FloateqAnalyzer, corePath, "floateq/floateq.go")
}

func TestGuardedbyAnalyzer(t *testing.T) {
	linttest.Run(t, lint.GuardedbyAnalyzer, corePath, "guardedby/guardedby.go")
}

// TestGuardedbyDaemonRaceRegression replays the PR 3 daemon race shape
// (session stepped between Unlock and re-Lock) and proves guardedby
// reports it while the shipped fix stays clean.
func TestGuardedbyDaemonRaceRegression(t *testing.T) {
	linttest.Run(t, lint.GuardedbyAnalyzer, "greenhetero/internal/daemon", "guardedby/daemonrace.go")
}

func TestGoleakAnalyzer(t *testing.T) {
	linttest.Run(t, lint.GoleakAnalyzer, corePath, "goleak/goleak.go")
}

func TestDefercloseAnalyzer(t *testing.T) {
	linttest.Run(t, lint.DefercloseAnalyzer, "greenhetero/internal/telemetry", "deferclose/deferclose.go")
}

// TestFlowAnalyzersRunEverywhere pins that the flow-sensitive analyzers
// are not package-gated: the same racy fixture fires even under a
// wall-clock-allowed import path.
func TestFlowAnalyzersRunEverywhere(t *testing.T) {
	linttest.Run(t, lint.GuardedbyAnalyzer, "greenhetero/internal/faultnet", "guardedby/daemonrace.go")
}

// taintutilDep is the shared fixture dependency for the
// interprocedural suites: a real importable package under testdata/
// holding a laundered wall-clock chain, an annotated leaf, and an
// allocating helper.
var taintutilDep = linttest.Dep{
	Path:  "greenhetero/internal/lint/testdata/taintutil",
	Files: []string{"taintutil/taintutil.go"},
}

// TestAllocfreeFixtures proves the allocfree contract end to end:
// every allocation-site class, the cold-path exemptions, callee
// discipline (annotated, whitelisted, cross-package, dynamic), the
// hidden-allocation regression, and the interface/field contracts.
func TestAllocfreeFixtures(t *testing.T) {
	linttest.RunWithDeps(t, lint.AllocfreeAnalyzer, corePath,
		[]string{"allocfree/allocfree.go", "allocfree/contract.go"},
		taintutilDep)
}

// TestDettaintFixtures proves the transitive-determinism pass: a core
// function laundering time.Now through a helper package is flagged at
// the frontier call with the full chain named, core→core indirection
// is not double-reported, clean helpers stay silent, and reasoned
// suppressions apply.
func TestDettaintFixtures(t *testing.T) {
	linttest.RunWithDeps(t, lint.DettaintAnalyzer, corePath,
		[]string{"dettaint/laundered.go"},
		taintutilDep)
}

// TestSuppression pins the directive contract end to end: exact-line,
// exact-analyzer silencing, and malformed directives reported.
func TestSuppression(t *testing.T) {
	linttest.Run(t, lint.DeterminismAnalyzer, corePath, "suppress/suppress.go")
}

// TestAnalyzersGatedOutsideCore verifies the package gate itself: the
// determinism fixture is full of violations, but loaded under an
// allowlisted wall-clock path none of them may fire (the malformed
// directives in other fixtures are absent here, and the fixture's
// well-formed suppression is simply unused).
func TestAnalyzersGatedOutsideCore(t *testing.T) {
	pkg, err := lint.LoadFiles("greenhetero/internal/telemetry", "testdata/determinism/determinism.go")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := lint.RunPackage(pkg, []*lint.Analyzer{lint.DeterminismAnalyzer, lint.SeedflowAnalyzer})
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside the core: [%s] %s", d.Analyzer, d.Message)
	}
}

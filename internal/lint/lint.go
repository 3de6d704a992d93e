// Package lint is ghlint: a domain-aware static-analysis suite that
// mechanically enforces the invariants the rest of this repository only
// promises in prose — determinism of the simulation core, unit safety of
// power/energy arithmetic, and disciplined seed flow through the
// parallel experiment engine.
//
// The repo's headline claim (bit-identical serial-vs-parallel
// experiment output, see internal/runner) survives only as long as no
// simulation path reads the wall clock, the global RNG, the
// environment, or the CPU count, and every fan-out derives child seeds
// through runner.DeriveSeed. Those are conventions; this package is the
// machine that checks them on every build.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, analysistest-style fixtures under
// testdata/), but is self-contained on the standard library's go/ast and
// go/types so the tool builds with no third-party dependencies: the
// linter that guards the build must not complicate it.
//
// Ten analyzers ship today. Three are statement-local AST passes:
//
//   - determinism: forbids wall-clock, global-RNG, environment, and
//     CPU-count reads inside the deterministic core packages.
//   - seedflow: requires rand.NewSource seeds in the core to come from
//     runner.DeriveSeed or a config Seed field, never ad-hoc arithmetic.
//   - floateq: rejects ==/!= between non-constant floating-point
//     expressions outside approved epsilon helpers.
//
// Three are flow-sensitive, built on a per-function CFG (cfg.go) and a
// must-hold lock-set dataflow (lockset.go):
//
//   - guardedby: fields annotated `// ghlint:guardedby <mutexField>`
//     are only accessed where the mutex is provably held on every path
//     (RLock suffices for reads only; `// ghlint:holds` declares a
//     caller-holds-lock contract on helpers).
//   - goleak: every `go` statement needs a provable termination channel
//     (WaitGroup pairing, context argument, or a callee that selects /
//     receives / does not loop).
//   - deferclose: net/os resources must be closed, returned, or stored
//     on every control-flow path from their acquisition.
//
// One enforces the telemetry plane's bounded-concurrency contract:
//
//   - chanbound: every make(chan) in internal/telemetry and
//     internal/daemon needs an explicit capacity or a reasoned
//     `// ghlint:unbounded` directive, and every send needs a provable
//     non-blocking escape (select default, cancellation case, or a
//     `ghlint:mayblock` contract).
//
// Three are interprocedural, built on a whole-program call graph
// (callgraph.go) shared across every loaded package:
//
//   - units: dimension-flow analysis over the W/Wh/h/frac lattice —
//     dimensions seeded from identifier suffixes and `// ghlint:units`
//     annotations propagate through assignments, calls, returns, and
//     field stores; additive mixing, cross-boundary mismatches, and
//     laundering through neutral names are findings.
//   - allocfree: functions annotated `// ghlint:allocfree` contain no
//     allocation site and call only annotated, whitelisted, or
//     contract-verified callees — the static form of the epoch hot
//     path's AllocsPerRun zero-alloc proof.
//   - dettaint: deterministic-core functions must not call helpers that
//     *transitively* reach a wall-clock or global-RNG read; findings
//     name the full call chain to the sink.
//
// Findings are suppressed line-by-line with a reasoned directive:
//
//	//lint:ghlint ignore <analyzer> <reason>
//
// See suppress.go for the exact placement rules. Malformed directives
// are themselves diagnostics, so a typo cannot silently disable a check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: an analyzer, a position, and a message.
type Diagnostic struct {
	// Pos locates the finding in the package's FileSet.
	Pos token.Pos
	// Analyzer names the analyzer that produced the finding (or
	// "ghlint" for driver-level findings such as malformed directives).
	Analyzer string
	// Message describes the violation and, where possible, the fix.
	Message string
	// Suppressed marks a finding silenced by a reasoned directive.
	// RunPackage drops suppressed findings; RunProgramPackageAll keeps
	// them flagged, so the -json driver output can make suppression
	// churn reviewable.
	Suppressed bool
}

// Analyzer is one named check. Run inspects the package behind pass and
// reports findings via pass.Reportf; it must not retain the pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output, in the
	// -analyzers driver flag, and in suppression directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string
	// Run executes the analyzer over one package.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Path is the package's import path. Package-gated analyzers
	// (determinism, seedflow) consult it via the config in config.go.
	Path string
	// Fset maps token.Pos to file positions.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package (may be partially complete if the
	// loader tolerated type errors).
	Pkg *types.Package
	// Info holds type-checker facts for expressions in Files.
	Info *types.Info
	// Prog is the interprocedural view over every loaded package (the
	// call graph, see callgraph.go). Interprocedural analyzers
	// (allocfree, dettaint) consult it; statement-local ones ignore it.
	// Always non-nil: single-package entry points build a one-package
	// program, in which cross-package callees appear as out-of-program
	// edges.
	Prog *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		SeedflowAnalyzer,
		UnitsAnalyzer,
		FloateqAnalyzer,
		GuardedbyAnalyzer,
		GoleakAnalyzer,
		DefercloseAnalyzer,
		ChanboundAnalyzer,
		AllocfreeAnalyzer,
		DettaintAnalyzer,
	}
}

// AnalyzerNames returns the names of the full suite, in order.
func AnalyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// lookupAnalyzer resolves a name against the suite.
func lookupAnalyzer(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage runs the given analyzers over pkg, applies suppression
// directives, appends diagnostics for malformed directives, and returns
// the surviving findings sorted by position then analyzer. The result
// is deterministic: it depends only on the package's source.
//
// The package is analyzed as a one-package program: interprocedural
// analyzers see calls into unloaded packages as out-of-program edges.
// Use BuildProgram + RunProgramPackage for whole-program precision.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgramPackage(BuildProgram([]*Package{pkg}), pkg, analyzers)
}

// RunProgramPackage is RunPackage against a prebuilt multi-package
// program, so interprocedural analyzers resolve cross-package edges.
// Diagnostics are reported for pkg only; prog must contain pkg.
func RunProgramPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range RunProgramPackageAll(prog, pkg, analyzers) {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunProgramPackageAll is RunProgramPackage without the suppression
// filter: silenced findings are returned with Suppressed set instead of
// dropped, so a reviewer (or the -json CI artifact) can see what the
// directives are holding back. Ordering and determinism match
// RunProgramPackage.
func RunProgramPackageAll(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	sups, supDiags := collectDirectives(pkg.Fset, pkg.Files)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Prog:     prog,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			d.Suppressed = sups.suppresses(pkg.Fset, d)
			diags = append(diags, d)
		}
	}
	diags = append(diags, supDiags...)

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

package lint

import (
	"go/ast"
	"strings"
)

// SeedflowAnalyzer polices how RNG seeds flow through the deterministic
// core. Every rand.NewSource (or rand.New, math/rand/v2 NewPCG, …) seed
// must be traceable to either runner.DeriveSeed or a configuration Seed
// field. Ad-hoc seed arithmetic — `baseSeed + int64(i)`, a literal, a
// hash rolled inline — is exactly how correlated noise streams sneak
// into fan-outs: two runs whose seeds differ by a small offset produce
// statistically dependent noise, which quietly biases paired-policy
// comparisons (the EPU deltas the paper's tables hinge on).
var SeedflowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc: "require RNG seeds in the deterministic core to come from " +
		"runner.DeriveSeed or a config Seed field, never inline seed " +
		"arithmetic or literals that correlate fan-out noise streams",
	Run: runSeedflow,
}

// seedConstructors maps rand package → the constructor functions whose
// arguments are seeds. sim's newCountingSource is math/rand's generator
// kept in-package: each rack session's noise stream is seeded there.
var seedConstructors = map[string]map[string]bool{
	"math/rand":                {"NewSource": true},
	"math/rand/v2":             {"NewPCG": true, "NewSource": true},
	"greenhetero/internal/sim": {"newCountingSource": true},
}

func runSeedflow(pass *Pass) {
	if !IsDeterministicCore(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn := pkgQualifiedCall(pass.Info, call)
			if !seedConstructors[pkgPath][fn] {
				return true
			}
			for _, arg := range call.Args {
				if !seedDerived(pass, arg, true) {
					pass.Reportf(arg.Pos(),
						"seed for %s.%s is not derived from runner.DeriveSeed or a Seed config field; ad-hoc seeds correlate fan-out noise streams (derive child seeds with runner.DeriveSeed(parentSeed, stableKey))",
						pkgPath, fn)
				}
			}
			return true
		})
	}
}

// seedDerived reports whether expr is an acceptable seed expression:
// a call to (anything.)DeriveSeed, a selector whose field name is
// Seed-suffixed (cfg.Seed), or a Seed-named identifier, possibly
// wrapped in parentheses or a type conversion (int64(cfg.Seed)).
//
// A Seed-suffixed name alone is not trusted: when trace is set, a local
// identifier with a single-assignment initializer is judged by that
// initializer instead, so `badSeed := cfg.Seed + int64(i)` cannot
// launder inline seed arithmetic through a flattering name. The trace
// is one step deep — an identifier reached through another identifier,
// or one whose declaration cannot be seen (a parameter, a field, a
// multi-value assignment, a later reassignment), falls back to the
// name convention.
func seedDerived(pass *Pass, expr ast.Expr, trace bool) bool {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return seedDerived(pass, e.X, trace)
	case *ast.CallExpr:
		// Type conversions are transparent: int64(x) is as good as x.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return seedDerived(pass, e.Args[0], trace)
		}
		return calleeName(e) == "DeriveSeed"
	case *ast.SelectorExpr:
		return isSeedName(e.Sel.Name)
	case *ast.Ident:
		if trace {
			if init := identInitializer(e); init != nil {
				return seedDerived(pass, init, false)
			}
		}
		return isSeedName(e.Name)
	}
	return false
}

// identInitializer returns the expression a locally declared identifier
// was initialized with (`x := expr` or `var x = expr`), or nil when the
// declaration is out of reach: a parameter, a struct field, a spec with
// no value, or a multi-value assignment whose components cannot be
// paired positionally.
func identInitializer(id *ast.Ident) ast.Expr {
	if id.Obj == nil {
		return nil
	}
	switch decl := id.Obj.Decl.(type) {
	case *ast.AssignStmt:
		if len(decl.Lhs) != len(decl.Rhs) {
			return nil
		}
		for i, lhs := range decl.Lhs {
			if li, ok := lhs.(*ast.Ident); ok && li.Obj == id.Obj {
				return decl.Rhs[i]
			}
		}
	case *ast.ValueSpec:
		if len(decl.Values) != len(decl.Names) {
			return nil
		}
		for i, name := range decl.Names {
			if name.Obj == id.Obj {
				return decl.Values[i]
			}
		}
	}
	return nil
}

// isSeedName reports whether an identifier names a seed by convention.
func isSeedName(name string) bool {
	return name == "Seed" || name == "seed" ||
		strings.HasSuffix(name, "Seed") || strings.HasSuffix(name, "seed")
}

// calleeName extracts the terminal name of a call's function: DeriveSeed
// for both runner.DeriveSeed(...) and a local DeriveSeed(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

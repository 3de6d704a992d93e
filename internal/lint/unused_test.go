package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"greenhetero/internal/lint"
)

// testOnlyExports lists the exported package-level names under
// internal/ that no non-test code uses, each with the reason it stays. A
// key is "import/path.Name", or "import/path" for a whole package.
var testOnlyExports = map[string]string{
	"greenhetero/internal/solver.OptimizeQuadratic2": "KKT oracle for the grid solver's tests, and the PAR optimality certificate's starting point",
	"greenhetero/internal/fit.RSquared":              "fit-quality figure kept for the per-epoch decision record",
	"greenhetero/internal/faultnet":                  "network fault injection for the telemetry and livenode fault tests",
	"greenhetero/internal/lint/linttest":             "fixture harness of the analyzers' own tests",
	"greenhetero/internal/lint.RunPackage":           "one-package driver of the analyzers' fixture tests",
	"greenhetero/internal/lint.UnitsFieldDims":       "exposes the units engine's field dimensions to its annotation-coverage test",
}

// TestNoTestOnlyExports fails when an exported package-level function,
// variable or constant in non-test internal/ code has no use in any
// non-test file of the module or of perfbench, the benchmark module,
// and is not listed in testOnlyExports with a reason. An export only
// tests call is machinery with no user: delete it, or keep it on the
// list. Methods are out of scope, because interface dispatch hides
// their uses from a syntactic scan.
func TestNoTestOnlyExports(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
				used[pkg.Path()+"."+obj.Name()] = true
			}
		}
	}
	if err := perfbenchUses(filepath.Join(root, "perfbench"), used); err != nil {
		t.Fatal(err)
	}

	var unused []string
	listed := make(map[string]bool)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "greenhetero/internal/") || p.Types == nil {
			continue
		}
		if _, ok := testOnlyExports[p.Path]; ok {
			listed[p.Path] = true
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			key := p.Path + "." + name
			if _, ok := testOnlyExports[key]; ok {
				listed[key] = true
				if used[key] {
					t.Errorf("testOnlyExports lists %s, which non-test code uses", key)
				}
				continue
			}
			switch obj := scope.Lookup(name); obj.(type) {
			case *types.Func, *types.Var, *types.Const:
				if obj.Exported() && !used[key] {
					unused = append(unused, key)
				}
			}
		}
	}
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test code uses it: delete it, or list it in testOnlyExports with the reason it stays", key)
	}
	// A stale entry would let a deleted name's successor through.
	for key := range testOnlyExports {
		if !listed[key] {
			t.Errorf("testOnlyExports lists %s, which does not exist", key)
		}
	}
}

// perfbenchUses records the internal package-level names perfbench's
// non-test files refer to as pkg.Name. perfbench is its own module, so
// lint.Load does not see it; qualified identifiers are all a package
// outside internal/ can use, and they need no type checking.
func perfbenchUses(dir string, used map[string]bool) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			return err
		}
		imports := make(map[string]string) // local name → import path
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return nil
}

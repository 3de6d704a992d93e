package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greenhetero/internal/lint"
)

// TestAllocfreeCoversHotPath closes the loop between the dynamic and the
// static allocation proofs: every function pinned to zero allocations by
// a testing.AllocsPerRun bench must carry the ghlint:allocfree
// annotation, so the analyzer statically guards exactly the invariants
// the benches measure. The test discovers the actual pin sites in the
// tree, so neither a new pin nor a deleted one can silently drift away
// from the map below.
func TestAllocfreeCoversHotPath(t *testing.T) {
	// The pinned set, by package: how many AllocsPerRun call sites the
	// package's tests hold, and which symbols those pins exercise. A new
	// pin must extend this map (and annotate its call tree).
	pinned := map[string]struct {
		sites   int
		symbols []string
	}{
		"internal/fit": {sites: 1, symbols: []string{
			"greenhetero/internal/fit.(Accumulator).ReplaceWindow",
			"greenhetero/internal/fit.(Accumulator).Fit",
		}},
		"internal/profiledb": {sites: 4, symbols: []string{
			"greenhetero/internal/profiledb.(DB).AddFeedback",
			"greenhetero/internal/profiledb.(DB).ProjectionsInto",
		}},
		"internal/solver": {sites: 1, symbols: []string{
			"greenhetero/internal/solver.(Warm).Optimize",
			"greenhetero/internal/solver.(residualIndexes).residualsFor",
		}},
	}

	// 1. Discover the actual AllocsPerRun call sites. The needle is
	// split so this file does not count itself.
	needle := "testing.AllocsPerRun" + "("
	root := filepath.Join("..", "..")
	found := make(map[string]int)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			switch info.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := strings.Count(string(src), needle)
		if n == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		found[filepath.ToSlash(rel)] += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, n := range found {
		want, ok := pinned[pkg]
		if !ok {
			t.Errorf("%s has %d AllocsPerRun pin(s) not covered by this test; add its pinned symbols to the map", pkg, n)
			continue
		}
		if n != want.sites {
			t.Errorf("%s has %d AllocsPerRun pin sites, the map expects %d; update the pinned symbol list", pkg, n, want.sites)
		}
	}
	for pkg := range pinned {
		if found[pkg] == 0 {
			t.Errorf("%s lost its AllocsPerRun pin; drop it from the map or restore the bench", pkg)
		}
	}

	// 2. Every pinned symbol is under the allocfree contract.
	pkgs, err := lint.Load(root, "./internal/fit", "./internal/profiledb", "./internal/solver")
	if err != nil {
		t.Fatal(err)
	}
	prog := lint.BuildProgram(pkgs)
	for _, p := range pinned {
		for _, sym := range p.symbols {
			node, ok := prog.Funcs[sym]
			if !ok {
				t.Errorf("pinned symbol %s not found in the call graph", sym)
				continue
			}
			if !node.Allocfree {
				t.Errorf("%s is pinned zero-alloc by AllocsPerRun but is not ghlint:allocfree-annotated", sym)
			}
		}
	}
}

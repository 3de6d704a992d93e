// Fixture for the seedflow analyzer: seeds reaching rand.NewSource in
// the deterministic core must come from runner.DeriveSeed or a Seed
// config field — inline seed arithmetic correlates fan-out streams.
package seedflow

import (
	"fmt"
	"math/rand"

	"greenhetero/internal/runner"
)

// Config mirrors the repo's fan-out configs.
type Config struct {
	Seed int64
}

func bad(cfg Config, i int) *rand.Rand {
	a := rand.NewSource(42)                  // want "not derived from runner.DeriveSeed"
	b := rand.NewSource(cfg.Seed + int64(i)) // want "not derived from runner.DeriveSeed"
	_ = a
	return rand.New(b)
}

func badNamed(cfg Config, i int) rand.Source {
	// A flattering Seed-suffixed name cannot launder inline seed
	// arithmetic: the analyzer traces a local identifier back to its
	// initializer.
	offsetSeed := cfg.Seed + int64(i)
	return rand.NewSource(offsetSeed) // want "not derived from runner.DeriveSeed"
}

func goodParam(childSeed int64) rand.Source {
	// Parameters cannot be traced; a Seed-suffixed name is the
	// caller's contract.
	return rand.NewSource(childSeed)
}

func good(cfg Config, i int) *rand.Rand {
	direct := rand.NewSource(cfg.Seed)
	derived := rand.NewSource(runner.DeriveSeed(cfg.Seed, fmt.Sprintf("run/%d", i)))
	converted := rand.NewSource(int64(uint64(cfg.Seed)))
	childSeed := runner.DeriveSeed(cfg.Seed, "child")
	named := rand.NewSource(childSeed)
	_, _, _ = direct, derived, converted
	return rand.New(named)
}

func suppressed(i int) rand.Source {
	return rand.NewSource(int64(i)) //lint:ghlint ignore seedflow fixture: deliberate raw seed
}

// newCountingSource stands in for sim's in-package math/rand generator,
// registered as a seed constructor (fixtures load as the sim package).
func newCountingSource(seed int64) rand.Source { return rand.NewSource(seed) }

func countingSources(cfg Config, i int) {
	_ = newCountingSource(cfg.Seed)
	_ = newCountingSource(7)                   // want "seed for greenhetero/internal/sim.newCountingSource is not derived"
	_ = newCountingSource(cfg.Seed ^ int64(i)) // want "seed for greenhetero/internal/sim.newCountingSource is not derived"
}

package sim

import (
	"math"
	"math/rand"
	"testing"
)

// countedStd counts the draws a *rand.Rand takes from math/rand's own
// source, the reference for countingSource's draw count.
type countedStd struct {
	src   rand.Source64
	draws uint64
}

func (c *countedStd) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countedStd) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countedStd) Seed(seed int64) { c.src.Seed(seed) }

// TestSourceMatchesMathRand pins countingSource to math/rand's stream:
// for edge and random seeds, its Uint64/Int63 output and a rand.Rand's
// NormFloat64/Float64 over it equal rand.NewSource's, draw for draw,
// and its draw count equals the number of source calls made.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, 89482311,
		math.MinInt64, math.MaxInt64,
	}
	pick := rand.New(rand.NewSource(20261020))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	// One source reseeded for every seed also checks that Seed resets
	// the register, the taps and the count.
	reused := newCountingSource(0)
	for _, seed := range seeds {
		reused.Seed(seed)
		for _, got := range []*countingSource{newCountingSource(seed), reused} {
			want := rand.NewSource(seed).(rand.Source64)
			for n := 0; n < draws; n++ {
				if n%2 == 0 {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, n, g, w)
					}
				} else if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, n, g, w)
				}
			}
			if got.draws != draws {
				t.Fatalf("seed %d: draw count %d after %d draws", seed, got.draws, draws)
			}
		}

		src := newCountingSource(seed)
		std := &countedStd{src: rand.NewSource(seed).(rand.Source64)}
		got, want := rand.New(src), rand.New(std)
		for n := 0; n < draws; n++ {
			var g, w float64
			if n%2 == 0 {
				g, w = got.NormFloat64(), want.NormFloat64()
			} else {
				g, w = got.Float64(), want.Float64()
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d variate %d: %v, math/rand %v", seed, n, g, w)
			}
		}
		if src.draws != std.draws {
			t.Fatalf("seed %d: draw count %d, math/rand source called %d times", seed, src.draws, std.draws)
		}
	}
}

// TestRecoverCookedSeedFree: the cooked vector read back from
// math/rand does not depend on the seed it was read through.
func TestRecoverCookedSeedFree(t *testing.T) {
	for _, seed := range []int64{0, -7, lcgMod, math.MaxInt64} {
		if recoverCooked(seed) != rngCooked {
			t.Fatalf("cooked vector recovered through seed %d differs", seed)
		}
	}
}

// BenchmarkSourceSeed times seeding one session's noise stream.
func BenchmarkSourceSeed(b *testing.B) {
	src := newCountingSource(0)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

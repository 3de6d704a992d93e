package policy

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/solver"
	"greenhetero/internal/workload"
)

// trainDB populates a database from the ground truth for the given rack
// groups and workload, emulating completed training runs.
func trainDB(t testing.TB, groups []server.Group, w workload.Workload) *profiledb.DB {
	t.Helper()
	db := profiledb.New()
	rng := rand.New(rand.NewSource(99))
	for _, g := range groups {
		pl := workload.NewPlant(g.Spec, w)
		fs := pl.Sweep(workload.NewLoad(1), 8, 1, rng)
		k := profiledb.Key{ServerID: g.Spec.ID, WorkloadID: w.ID}
		if err := db.AddTrainingRun(k, g.Spec.IdleW, workload.PeakEffW(g.Spec, w), fs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// projections fetches each group's projection for its workload, as the
// controller does once per epoch: ws holds one workload per group, or
// one workload for every group.
func projections(t testing.TB, db *profiledb.DB, groups []server.Group, ws ...workload.Workload) []profiledb.Entry {
	t.Helper()
	keys := make([]profiledb.Key, len(groups))
	for i, g := range groups {
		w := ws[0]
		if len(ws) > 1 {
			w = ws[i]
		}
		keys[i] = profiledb.Key{ServerID: g.Spec.ID, WorkloadID: w.ID}
	}
	out := make([]profiledb.Entry, len(keys))
	if _, err := db.ProjectionsInto(keys, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func testGroups(t testing.TB) []server.Group {
	t.Helper()
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	return []server.Group{{Spec: a, Count: 5}, {Spec: b, Count: 5}}
}

// truePerf evaluates a PAR vector on the hidden truth.
func truePerf(groups []server.Group, w workload.Workload, supply float64, fracs []float64) float64 {
	var total float64
	for i, g := range groups {
		perServer := fracs[i] * supply / float64(g.Count)
		total += float64(g.Count) * workload.Perf(g.Spec, w, perServer)
	}
	return total
}

func mustWorkload(t testing.TB, id string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestUniform(t *testing.T) {
	groups := testGroups(t)
	fracs, err := Uniform{}.Allocate(Context{Groups: groups, SupplyW: 800})
	if err != nil {
		t.Fatal(err)
	}
	if fracs[0] != 0.5 || fracs[1] != 0.5 {
		t.Errorf("uniform fracs = %v", fracs)
	}
	if (Uniform{}).UpdatesDB() {
		t.Error("Uniform must not update the DB")
	}
}

func TestManualBeatsUniform(t *testing.T) {
	groups := testGroups(t)
	w := mustWorkload(t, workload.SPECjbb)
	supply := 800.0
	ctx := Context{
		Groups: groups, SupplyW: supply,
		TryAllocation: func(fracs []float64) (float64, error) {
			return truePerf(groups, w, supply, fracs), nil
		},
	}
	fracs, err := (&Manual{}).Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, uni := truePerf(groups, w, supply, fracs), truePerf(groups, w, supply, []float64{0.5, 0.5}); got < uni {
		t.Errorf("manual %v worse than uniform %v", got, uni)
	}
	// Fractions on the 10 % grid.
	for _, f := range fracs {
		if math.Abs(f*10-math.Round(f*10)) > 1e-9 {
			t.Errorf("fraction %v not on 10%% grid", f)
		}
	}
}

func TestManualNeedsCallback(t *testing.T) {
	groups := testGroups(t)
	_, err := (&Manual{}).Allocate(Context{Groups: groups, SupplyW: 800})
	if !errors.Is(err, ErrNoTryAllocation) {
		t.Errorf("err = %v, want ErrNoTryAllocation", err)
	}
}

func TestManualThreeGroups(t *testing.T) {
	a, err := server.Lookup(server.XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Lookup(server.XeonE52603)
	if err != nil {
		t.Fatal(err)
	}
	c, err := server.Lookup(server.CoreI54460)
	if err != nil {
		t.Fatal(err)
	}
	groups := []server.Group{{Spec: a, Count: 2}, {Spec: b, Count: 2}, {Spec: c, Count: 2}}
	w := mustWorkload(t, workload.SPECjbb)
	supply := 500.0
	var trials int
	ctx := Context{
		Groups: groups, SupplyW: supply,
		TryAllocation: func(fracs []float64) (float64, error) {
			trials++
			return truePerf(groups, w, supply, fracs), nil
		},
	}
	if _, err := (&Manual{}).Allocate(ctx); err != nil {
		t.Fatal(err)
	}
	if trials != 66 { // C(12,2) points on the 10 % simplex
		t.Errorf("trials = %d, want 66", trials)
	}
}

func TestPrioritizedOrdering(t *testing.T) {
	groups := testGroups(t)
	w := mustWorkload(t, workload.SPECjbb)
	db := trainDB(t, groups, w)
	// Supply only enough for the efficient group (i5): the Xeon group
	// must get (almost) nothing.
	supply := 5 * 80.0
	fracs, err := Prioritized{}.Allocate(Context{Groups: groups, SupplyW: supply, Entries: projections(t, db, groups, w)})
	if err != nil {
		t.Fatal(err)
	}
	// Group order: e5-2620 (idx 0), i5-4460 (idx 1). i5 is more
	// efficient → receives nearly everything.
	if fracs[1] < 0.9 {
		t.Errorf("i5 fraction = %v, want ≈ 1", fracs[1])
	}
	if fracs[0] > 0.1 {
		t.Errorf("xeon fraction = %v, want ≈ 0", fracs[0])
	}
}

// TestPrioritizedNotProfiled: a rack whose pairs have no projections
// yet hands the policy no entries, which it must reject rather than
// rank.
func TestPrioritizedNotProfiled(t *testing.T) {
	groups := testGroups(t)
	_, err := Prioritized{}.Allocate(Context{Groups: groups, SupplyW: 500})
	if !errors.Is(err, ErrBadContext) {
		t.Errorf("err = %v, want ErrBadContext", err)
	}
}

func TestSolverPolicyBeatsUniform(t *testing.T) {
	groups := testGroups(t)
	w := mustWorkload(t, workload.Streamcluster)
	db := trainDB(t, groups, w)
	supply := 700.0
	fracs, err := Solver{Adaptive: true}.Allocate(Context{Groups: groups, SupplyW: supply, Entries: projections(t, db, groups, w)})
	if err != nil {
		t.Fatal(err)
	}
	got := truePerf(groups, w, supply, fracs)
	uni := truePerf(groups, w, supply, []float64{0.5, 0.5})
	if got < uni {
		t.Errorf("solver policy %v worse than uniform %v on the truth", got, uni)
	}
}

// TestSolverPolicyOneSolvePath pins Solver.Allocate to the reference
// solver on a three-group rack, bit for bit, whether the Context
// carries no Scratch (a fresh one per call), a fresh Scratch, the same
// Scratch reused for a second solve, or that Scratch handed a new
// entries array, whose models it must rebind.
func TestSolverPolicyOneSolvePath(t *testing.T) {
	var groups []server.Group
	for _, id := range []string{server.XeonE52620, server.XeonE52603, server.CoreI54460} {
		spec, err := server.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	w := mustWorkload(t, workload.SPECjbb)
	db := trainDB(t, groups, w)
	const supply = 900.0

	entries := projections(t, db, groups, w)
	models := make([]solver.GroupModel, len(groups))
	for i, g := range groups {
		e := &entries[i]
		models[i] = solver.GroupModel{Count: g.Count, IdleW: e.IdleW, PeakEffW: e.PeakEffW, Perf: e.Predict}
	}
	want, err := solver.Optimize(models, supply, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A decoy rack's entries bind the reused Scratch to another array
	// first; the rebind must follow the new one.
	decoy := projections(t, trainDB(t, groups, mustWorkload(t, workload.Memcached)), groups, mustWorkload(t, workload.Memcached))
	sc, rebound := NewScratch(), NewScratch()
	if _, err := (Solver{Adaptive: true}).Allocate(Context{Groups: groups, SupplyW: supply, Entries: decoy, Scratch: rebound}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		scratch *Scratch
	}{{"no scratch", nil}, {"fresh scratch", sc}, {"reused scratch", sc}, {"rebound scratch", rebound}} {
		got, err := Solver{Adaptive: true}.Allocate(Context{Groups: groups, SupplyW: supply, Entries: entries, Scratch: tc.scratch})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != len(want.Fractions) {
			t.Fatalf("%s: %d fractions, reference %d", tc.name, len(got), len(want.Fractions))
		}
		for i := range want.Fractions {
			if math.Float64bits(got[i]) != math.Float64bits(want.Fractions[i]) {
				t.Fatalf("%s: fractions %v, reference %v", tc.name, got, want.Fractions)
			}
		}
	}
}

func TestSolverPolicyNames(t *testing.T) {
	if (Solver{Adaptive: true}).Name() != "GreenHetero" {
		t.Error("adaptive name")
	}
	if (Solver{}).Name() != "GreenHetero-a" {
		t.Error("non-adaptive name")
	}
	if !(Solver{Adaptive: true}).UpdatesDB() {
		t.Error("GreenHetero must update the DB")
	}
	if (Solver{}).UpdatesDB() {
		t.Error("GreenHetero-a must not update the DB")
	}
}

func TestContextValidation(t *testing.T) {
	if _, err := (Solver{}).Allocate(Context{SupplyW: 100}); !errors.Is(err, ErrBadContext) {
		t.Errorf("no groups err = %v", err)
	}
	groups := testGroups(t)
	if _, err := (Solver{}).Allocate(Context{Groups: groups, SupplyW: 100}); !errors.Is(err, ErrBadContext) {
		t.Errorf("no entries err = %v", err)
	}
	if _, err := (&Manual{}).Allocate(Context{}); !errors.Is(err, ErrBadContext) {
		t.Errorf("manual no groups err = %v", err)
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d policies, want 5", len(all))
	}
	wantNames := []string{"Uniform", "Manual", "GreenHetero-p", "GreenHetero-a", "GreenHetero"}
	for i, p := range all {
		if p.Name() != wantNames[i] {
			t.Errorf("All()[%d] = %q, want %q", i, p.Name(), wantNames[i])
		}
		got, err := ByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("ByName(%q) = %v, %v", p.Name(), got, err)
		}
	}
	if _, err := ByName("Oracle"); err == nil {
		t.Error("unknown name should error")
	}
}

func BenchmarkSolverPolicyAllocate(b *testing.B) {
	groups := testGroups(b)
	w := mustWorkload(b, workload.SPECjbb)
	db := trainDB(b, groups, w)
	ctx := Context{Groups: groups, SupplyW: 800, Entries: projections(b, db, groups, w), Scratch: NewScratch()}
	p := Solver{Adaptive: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Allocate(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func TestManualReplaysCachedBucket(t *testing.T) {
	groups := testGroups(t)
	w := mustWorkload(t, workload.SPECjbb)
	supply := 800.0
	var trials int
	ctx := Context{
		Groups: groups, SupplyW: supply,
		TryAllocation: func(fracs []float64) (float64, error) {
			trials++
			return truePerf(groups, w, supply, fracs), nil
		},
	}
	m := &Manual{}
	first, err := m.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	trialsAfterFirst := trials
	// Same supply bucket: no new trials, identical answer.
	second, err := m.Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if trials != trialsAfterFirst {
		t.Errorf("cached call ran %d extra trials", trials-trialsAfterFirst)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cached ratio differs: %v vs %v", first, second)
		}
	}
	// A different supply level re-trials (new table entry).
	ctx.SupplyW = 500
	if _, err := m.Allocate(ctx); err != nil {
		t.Fatal(err)
	}
	if trials == trialsAfterFirst {
		t.Error("new supply bucket should re-trial")
	}
}

func TestManualCallbackErrorPropagates(t *testing.T) {
	groups := testGroups(t)
	ctx := Context{
		Groups: groups, SupplyW: 800,
		TryAllocation: func([]float64) (float64, error) {
			return 0, errors.New("power meter offline")
		},
	}
	if _, err := (&Manual{}).Allocate(ctx); err == nil {
		t.Error("trial failure must propagate")
	}
}

func TestEntriesMismatch(t *testing.T) {
	groups := testGroups(t)
	w := mustWorkload(t, workload.SPECjbb)
	db := trainDB(t, groups, w)
	ctx := Context{
		Groups:  groups,
		SupplyW: 500,
		Entries: projections(t, db, groups, w)[:1], // 1 for 2 groups
	}
	if _, err := (Solver{}).Allocate(ctx); !errors.Is(err, ErrBadContext) {
		t.Errorf("err = %v, want ErrBadContext", err)
	}
	if _, err := (Prioritized{}).Allocate(ctx); !errors.Is(err, ErrBadContext) {
		t.Errorf("prioritized err = %v, want ErrBadContext", err)
	}
}

func TestGroupWorkloadsMixedAllocation(t *testing.T) {
	groups := testGroups(t)
	jbb := mustWorkload(t, workload.SPECjbb)
	mc := mustWorkload(t, workload.Memcached)
	// Train the DB for the mixed assignment.
	db := trainDB(t, groups[:1], jbb)
	pl := workload.NewPlant(groups[1].Spec, mc)
	fs := pl.Sweep(workload.NewLoad(1), 8, 1, rand.New(rand.NewSource(5)))
	k := profiledb.Key{ServerID: groups[1].Spec.ID, WorkloadID: mc.ID}
	if err := db.AddTrainingRun(k, groups[1].Spec.IdleW, workload.PeakEffW(groups[1].Spec, mc), fs); err != nil {
		t.Fatal(err)
	}
	ctx := Context{
		Groups:  groups,
		SupplyW: 700,
		Entries: projections(t, db, groups, jbb, mc),
	}
	fracs, err := (Solver{Adaptive: true}).Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Errorf("fractions = %v", fracs)
	}
}

package livenode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/breaker"
	"greenhetero/internal/core"
	"greenhetero/internal/faultnet"
	"greenhetero/internal/policy"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/telemetry"
	"greenhetero/internal/workload"
)

func fastRetry(attempts int) telemetry.RetryPolicy {
	return telemetry.RetryPolicy{Attempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 3}
}

func TestNodeSetTargetNonFinite(t *testing.T) {
	n, err := NewNode("n0", mustSpec(t, server.XeonE52620), mustWorkload(t, workload.SPECjbb), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := n.SetTarget(bad); err == nil {
			t.Errorf("SetTarget(%v) should error", bad)
		}
	}
	if err := n.SetTarget(100); err != nil {
		t.Errorf("finite target rejected: %v", err)
	}
}

// TestTrainingRunUnderFaults sweeps a node through a proxy injecting
// seeded connection resets: the prober's retry policy must carry the
// whole run through without aborting.
func TestTrainingRunUnderFaults(t *testing.T) {
	spec := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, workload.SPECjbb)
	n, err := NewNode("n0", spec, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := telemetry.NewAgent("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	sched, err := faultnet.NewSchedule(17, faultnet.Rates{Reset: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	p, err := faultnet.New(a.Addr(), sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	prober := &Prober{
		GroupAddrs: map[string][]string{spec.ID: {p.Addr()}},
		Timeout:    time.Second,
		Retry:      fastRetry(4),
	}
	res, err := prober.TrainingRun(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(res.Samples))
	}
	if p.Count(faultnet.Reset) == 0 {
		t.Error("schedule injected no resets; test exercised nothing")
	}
}

// TestClosedLoopDegradedMinority is the headline fault-tolerance run: a
// multi-epoch live control loop where one of four agents sits behind a
// 20%-drop proxy. Every epoch must complete — dropped samples surface as
// stale readings, never as failed epochs — and killing a majority of
// agents must still abort collection.
func TestClosedLoopDegradedMinority(t *testing.T) {
	if testing.Short() {
		t.Skip("drop faults spend real timeouts")
	}
	specA := mustSpec(t, server.XeonE52620)
	specB := mustSpec(t, server.CoreI54460)
	w := mustWorkload(t, workload.SPECjbb)
	rack, err := server.NewRack("degraded",
		server.Group{Spec: specA, Count: 2},
		server.Group{Spec: specB, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	groupAddrs := make(map[string][]string)
	var agents []*telemetry.Agent
	for gi, g := range rack.Groups() {
		for i := 0; i < g.Count; i++ {
			n, err := NewNode(fmt.Sprintf("g%d/n%d", gi, i), g.Spec, w, int64(gi*10+i))
			if err != nil {
				t.Fatal(err)
			}
			a, err := telemetry.NewAgent("127.0.0.1:0", n)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			groupAddrs[g.Spec.ID] = append(groupAddrs[g.Spec.ID], a.Addr())
			agents = append(agents, a)
		}
	}
	// The last agent's monitoring path goes through a seeded 20%-drop
	// proxy; enforcement and training use the direct addresses.
	sched, err := faultnet.NewSchedule(23, faultnet.Rates{Drop: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := faultnet.New(agents[3].Addr(), sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lossy.Close() })
	monitorAddrs := []string{agents[0].Addr(), agents[1].Addr(), agents[2].Addr(), lossy.Addr()}

	bank, err := battery.New(battery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{
		Rack:        rack,
		DB:          profiledb.New(),
		Policy:      policy.Solver{Adaptive: true},
		Battery:     bank,
		GridBudgetW: 400,
		Epoch:       15 * time.Minute,
		Prober:      &Prober{GroupAddrs: groupAddrs, Timeout: 2 * time.Second, Retry: fastRetry(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	collector, err := telemetry.NewCollector(monitorAddrs,
		telemetry.WithRetry(fastRetry(1)), // no retries: every drop must surface as stale
		telemetry.WithTimeout(150*time.Millisecond),
		telemetry.WithBreaker(breaker.Config{FailureThreshold: 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	ctx := context.Background()
	demand := 0.0
	ws := make([]workload.Workload, rack.NumGroups()) // every group runs w
	for i, g := range rack.Groups() {
		demand += float64(g.Count) * workload.PeakEffW(g.Spec, w)
		ws[i] = w
	}
	staleTotal := 0
	for epoch := 0; epoch < 8; epoch++ {
		dec, err := ctrl.Step(core.Observation{RenewableW: 300, DemandW: demand}, ws)
		if err != nil {
			t.Fatalf("epoch %d: controller: %v", epoch, err)
		}
		targets, err := Targets(rack, dec)
		if err != nil {
			t.Fatalf("epoch %d: targets: %v", epoch, err)
		}
		if err := Enforce(ctx, groupAddrs, targets, 2*time.Second); err != nil {
			t.Fatalf("epoch %d: enforce: %v", epoch, err)
		}
		results, err := collector.Collect(ctx)
		if err != nil {
			t.Fatalf("epoch %d: collect failed (minority loss must degrade, not fail): %v", epoch, err)
		}
		for _, r := range results {
			if r.Stale {
				staleTotal++
			}
		}
	}
	if lossy.Count(faultnet.Drop) == 0 {
		t.Error("proxy injected no drops over 8 epochs")
	}
	if staleTotal == 0 {
		t.Error("drops occurred but no reading was served stale")
	}

	// Majority failure is still an error: kill three of four agents.
	for _, a := range agents[:3] {
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := collector.Collect(ctx); !errors.Is(err, telemetry.ErrMajorityFailed) {
		t.Errorf("majority-dead collect err = %v, want ErrMajorityFailed", err)
	}
}

package livenode

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/core"
	"greenhetero/internal/policy"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/server"
	"greenhetero/internal/telemetry"
	"greenhetero/internal/workload"
)

func mustSpec(t *testing.T, id string) server.Spec {
	t.Helper()
	s, err := server.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustWorkload(t *testing.T, id string) workload.Workload {
	t.Helper()
	w, err := workload.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewNodeValidation(t *testing.T) {
	spec := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, workload.SPECjbb)
	if _, err := NewNode("", spec, w, 1); err == nil {
		t.Error("empty id should error")
	}
	if _, err := NewNode("n", server.Spec{}, w, 1); err == nil {
		t.Error("bad spec should error")
	}
	if _, err := NewNode("n", spec, workload.Workload{}, 1); err == nil {
		t.Error("empty workload should error")
	}
}

func TestNodeSetAndSample(t *testing.T) {
	spec := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, workload.SPECjbb)
	n, err := NewNode("n0", spec, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped: the node draws its effective peak.
	r, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	peakEff := workload.PeakEffW(spec, w)
	if math.Abs(r.PowerW-peakEff) > peakEff*0.05 {
		t.Errorf("uncapped draw = %v, want ≈ %v", r.PowerW, peakEff)
	}
	// Capped below idle: the node cannot run.
	if err := n.SetTarget(20); err != nil {
		t.Fatal(err)
	}
	r, err = n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if r.PowerW != 0 || r.Perf != 0 {
		t.Errorf("below-idle reading = %+v, want zeros", r)
	}
	if err := n.SetTarget(-1); err == nil {
		t.Error("negative target should error")
	}
	if err := n.SetIntensity(0); err == nil {
		t.Error("bad intensity should error")
	}
	if err := n.SetIntensity(0.5); err != nil {
		t.Fatal(err)
	}
}

// liveRack spins up agents for a 2-group rack and returns the rack, the
// address map, and a cleanup-registered agent list.
func liveRack(t *testing.T) (*server.Rack, map[string][]string, []*Node) {
	t.Helper()
	specA := mustSpec(t, server.XeonE52620)
	specB := mustSpec(t, server.CoreI54460)
	w := mustWorkload(t, workload.SPECjbb)
	rack, err := server.NewRack("live",
		server.Group{Spec: specA, Count: 2},
		server.Group{Spec: specB, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[string][]string)
	var nodes []*Node
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
			t.Cleanup(func() {
				if err := a.Close(); err != nil {
					t.Errorf("close agent: %v", err)
				}
			})
			addrs[g.Spec.ID] = append(addrs[g.Spec.ID], a.Addr())
			nodes = append(nodes, n)
		}
	}
	return rack, addrs, nodes
}

func TestProberTrainingRunOverTCP(t *testing.T) {
	_, addrs, _ := liveRack(t)
	spec := mustSpec(t, server.XeonE52620)
	w := mustWorkload(t, workload.SPECjbb)
	p := &Prober{GroupAddrs: addrs, Timeout: 2 * time.Second}
	res, err := p.TrainingRun(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// The highest observed draw approximates the workload's effective
	// peak (the meter reads actual draw, capped by demand).
	peakEff := workload.PeakEffW(spec, w)
	if math.Abs(res.PeakEffW-peakEff) > peakEff*0.06 {
		t.Errorf("observed peak %v, want ≈ %v", res.PeakEffW, peakEff)
	}
	if _, err := p.TrainingRun(mustSpec(t, server.TitanXp), w); err == nil {
		t.Error("unknown group should error")
	}
}

// TestClosedLoopOverTCP drives the full controller loop against live
// agents: training over the wire, policy allocation, SPC enforcement via
// "set", and Monitor feedback via "sample".
func TestClosedLoopOverTCP(t *testing.T) {
	rack, addrs, _ := liveRack(t)
	w := mustWorkload(t, workload.SPECjbb)
	bank, err := battery.New(battery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := profiledb.New()
	ctrl, err := core.New(core.Config{
		Rack:        rack,
		DB:          db,
		Policy:      policy.Solver{Adaptive: true},
		Battery:     bank,
		GridBudgetW: 400,
		Epoch:       15 * time.Minute,
		Prober:      &Prober{GroupAddrs: addrs, Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	demand := 0.0
	ws := make([]workload.Workload, rack.NumGroups()) // every group runs w
	for i, g := range rack.Groups() {
		demand += float64(g.Count) * workload.PeakEffW(g.Spec, w)
		ws[i] = w
	}
	// Scarce renewable: the controller must cap the nodes.
	var lastPerf float64
	for epoch := 0; epoch < 4; epoch++ {
		dec, err := ctrl.Step(core.Observation{RenewableW: 300, DemandW: demand}, ws)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if epoch == 0 && !dec.TrainingRun {
			t.Error("first epoch should train over TCP")
		}
		// Enforce the SPC decision on every node.
		targets, err := Targets(rack, dec)
		if err != nil {
			t.Fatalf("epoch %d: targets: %v", epoch, err)
		}
		if err := Enforce(ctx, addrs, targets, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		// Monitor: collect readings from every node, feed back.
		var all []string
		for _, as := range addrs {
			all = append(all, as...)
		}
		collector, err := telemetry.NewCollector(all)
		if err != nil {
			t.Fatal(err)
		}
		results, err := collector.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lastPerf = 0
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("sensor %s: %v", r.Addr, r.Err)
			}
			lastPerf += r.Reading.Perf
		}
	}
	if db.Len() != 2 {
		t.Errorf("db entries = %d, want 2", db.Len())
	}
	if lastPerf <= 0 {
		t.Errorf("rack throughput = %v after enforcement", lastPerf)
	}
}

func TestEnforcePartialFailure(t *testing.T) {
	_, addrs, _ := liveRack(t)
	targets := []InstructionTarget{
		{ServerID: server.XeonE52620, TargetW: 100},
		{ServerID: "ghost", TargetW: 50}, // no agents: silently skipped
	}
	if err := Enforce(context.Background(), addrs, targets, time.Second); err != nil {
		t.Fatal(err)
	}
	// A dead address inside a known group surfaces an error.
	broken := map[string][]string{server.XeonE52620: {"127.0.0.1:1"}}
	if err := Enforce(context.Background(), broken, targets[:1], 200*time.Millisecond); err == nil {
		t.Error("dead node should surface an enforcement error")
	}
}

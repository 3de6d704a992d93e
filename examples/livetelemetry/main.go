// Livetelemetry runs the GreenHetero control loop over the network — the
// deployment shape of Fig. 4, end to end. Each server is a TCP agent
// (internal/livenode) that accepts SPC power budgets and reports meter
// readings; the rack controller trains its database through the wire,
// allocates each epoch, enforces the PAR via "set" commands, and feeds
// sampled readings back into the database. On real hardware the agent
// would wrap cpufreq and a power meter; everything else stays identical.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"greenhetero"
	"greenhetero/internal/battery"
	"greenhetero/internal/breaker"
	"greenhetero/internal/core"
	"greenhetero/internal/fit"
	"greenhetero/internal/livenode"
	"greenhetero/internal/policy"
	"greenhetero/internal/profiledb"
	"greenhetero/internal/telemetry"
	"greenhetero/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rack, err := greenhetero.NewComb1Rack()
	if err != nil {
		return err
	}
	w := greenhetero.MustWorkload(greenhetero.SPECjbb)

	// One agent per server, each backed by a node-local control loop.
	groupAddrs := make(map[string][]string)
	var agents []*telemetry.Agent
	defer func() {
		for _, a := range agents {
			if err := a.Close(); err != nil {
				log.Printf("close agent: %v", err)
			}
		}
	}()
	for gi, g := range rack.Groups() {
		for i := 0; i < g.Count; i++ {
			node, err := livenode.NewNode(fmt.Sprintf("%s/%d", g.Spec.ID, i), g.Spec, w, int64(gi*100+i))
			if err != nil {
				return err
			}
			a, err := telemetry.NewAgent("127.0.0.1:0", node)
			if err != nil {
				return err
			}
			agents = append(agents, a)
			groupAddrs[g.Spec.ID] = append(groupAddrs[g.Spec.ID], a.Addr())
		}
	}
	fmt.Printf("started %d node agents across %d groups\n", len(agents), len(groupAddrs))

	bank, err := battery.New(greenhetero.DefaultBattery())
	if err != nil {
		return err
	}
	// Start with a drained bank and a tight grid feed so the morning is
	// genuinely scarce — the regime where the PAR matters.
	if err := bank.SetSoC(0.6); err != nil {
		return err
	}
	db := profiledb.New()
	ctrl, err := greenhetero.NewController(core.Config{
		Rack:        rack,
		DB:          db,
		Policy:      policy.Solver{Adaptive: true},
		Battery:     bank,
		GridBudgetW: 700,
		Epoch:       15 * time.Minute,
		Prober:      &livenode.Prober{GroupAddrs: groupAddrs, Retry: telemetry.RetryPolicy{Attempts: 3, Seed: 42}},
	})
	if err != nil {
		return err
	}

	// Flatten the address list for the Monitor's epoch sweep. The
	// collector keeps one persistent connection per agent, retries with
	// seeded backoff, and trips a per-agent breaker on repeated failure;
	// a failed minority is served from last-known-good readings (Stale).
	var all []string
	for _, as := range groupAddrs {
		all = append(all, as...)
	}
	collector, err := telemetry.NewCollector(all,
		telemetry.WithRetry(telemetry.RetryPolicy{Attempts: 3, Seed: 42}),
		telemetry.WithBreaker(breaker.Config{FailureThreshold: 5, CooldownEpochs: 2}))
	if err != nil {
		return err
	}
	defer collector.Close()

	ctx := context.Background()
	var demand float64
	ws := make([]workload.Workload, rack.NumGroups()) // every group runs w
	for i, g := range rack.Groups() {
		demand += float64(g.Count) * workload.PeakEffW(g.Spec, w)
		ws[i] = w
	}
	renewables := []float64{0, 300, 600, 900, 700, 400} // a morning's ramp

	fmt.Println("\nepoch  case  supply(W)  PAR    rack draw(W)  rack perf  stale")
	degraded := false // did last epoch's collection serve stale readings?
	staleTotal := 0
	for epoch, ren := range renewables {
		dec, err := ctrl.Step(core.Observation{RenewableW: ren, DemandW: demand, Stale: degraded}, ws)
		if err != nil {
			return err
		}
		// Enforce the SPC decision over the wire.
		targets, err := livenode.Targets(rack, dec)
		if err != nil {
			return err
		}
		if err := livenode.Enforce(ctx, groupAddrs, targets, 2*time.Second); err != nil {
			return err
		}
		// Monitor: gather meter readings, feed the database.
		results, err := collector.Collect(ctx)
		if err != nil {
			return err
		}
		var drawW, perf float64
		staleEpoch := 0
		feedback := make([][]fit.Sample, rack.NumGroups())
		groupIdx := indexAddrs(rack, groupAddrs)
		for _, r := range results {
			if r.Err != nil {
				log.Printf("sensor %s: %v", r.Addr, r.Err)
				continue
			}
			drawW += r.Reading.PowerW
			perf += r.Reading.Perf
			if r.Stale {
				// Last-known-good readings keep the aggregates meaningful
				// but are replays, not measurements: never feed them back
				// into the database.
				staleEpoch++
				continue
			}
			if gi, ok := groupIdx[r.Addr]; ok && r.Reading.PowerW > 0 {
				feedback[gi] = append(feedback[gi], fit.Sample{X: r.Reading.PowerW, Y: r.Reading.Perf})
			}
		}
		degraded = staleEpoch > 0
		staleTotal += staleEpoch
		if err := ctrl.Feedback(ws, feedback); err != nil {
			return err
		}
		par := 0.0
		var sum float64
		for _, f := range dec.Fractions {
			sum += f
		}
		if sum > 0 {
			par = dec.Fractions[0] / sum
		}
		fmt.Printf("%5d  %-4s  %9.0f  %.2f   %12.0f  %9.0f  %5d\n",
			epoch, dec.Case, dec.SupplyW, par, drawW, perf, staleEpoch)
	}
	fmt.Printf("\ndatabase holds %d (config, workload) projections, trained and refined over TCP\n", db.Len())
	fmt.Printf("stale readings served: %d", staleTotal)
	open := 0
	for _, h := range collector.Health() {
		if h.State != breaker.Closed {
			open++
		}
	}
	fmt.Printf("; agents with tripped breakers: %d\n", open)
	return nil
}

// indexAddrs maps each agent address back to its rack group index.
func indexAddrs(rack *greenhetero.Rack, groupAddrs map[string][]string) map[string]int {
	out := make(map[string]int)
	for gi, g := range rack.Groups() {
		for _, addr := range groupAddrs[g.Spec.ID] {
			out[addr] = gi
		}
	}
	return out
}

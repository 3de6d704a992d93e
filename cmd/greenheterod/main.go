// Command greenheterod runs a rack controller as a long-lived service
// with an HTTP introspection API — one scheduling epoch per wall-clock
// tick (simulated time accelerated).
//
// Usage:
//
//	greenheterod [-listen 127.0.0.1:7946] [-tick 1s] [-history 1024]
//	             [-combo Comb1] [-workload specjbb] [-policy GreenHetero]
//	             [-trace high|low] [-grid 1000] [-panel 2200] [-seed 7]
//	             [-state-dir /var/lib/greenheterod] [-snapshot-every 32]
//
// Then:
//
//	curl localhost:7946/status
//	curl localhost:7946/history
//	curl localhost:7946/db
//
// With -state-dir set, the controller's state is crash-safe: every epoch
// commits the session's full state to a write-ahead log, an atomic
// snapshot compacts the log every -snapshot-every epochs, and a restart
// over the same directory (after SIGTERM or a crash) restores the newest
// durable state and resumes exactly where it stopped, without
// re-executing any epoch. A directory written for another scenario
// (policy, workload, seed, rack or solar trace) is rejected. On
// SIGINT/SIGTERM the daemon writes a final checkpoint before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"greenhetero/internal/daemon"
	"greenhetero/internal/policy"
	"greenhetero/internal/scenario"
	"greenhetero/internal/server"
	"greenhetero/internal/sim"
	"greenhetero/internal/solar"
	"greenhetero/internal/workload"
)

func main() {
	if err := run(signalContext(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "greenheterod:", err)
		os.Exit(1)
	}
}

// signalContext cancels on SIGINT/SIGTERM.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

// comboServers mirrors Table IV.
var comboServers = map[string][]string{
	"Comb1": {server.XeonE52620, server.CoreI54460},
	"Comb2": {server.XeonE52603, server.CoreI54460},
	"Comb3": {server.XeonE52650, server.XeonE52620},
	"Comb4": {server.CoreI78700K, server.CoreI54460},
	"Comb5": {server.XeonE52620, server.XeonE52603, server.CoreI54460},
	"Comb6": {server.XeonE52620, server.TitanXp},
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("greenheterod", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7946", "HTTP listen address")
	tick := fs.Duration("tick", time.Second, "wall-clock time per scheduling epoch")
	history := fs.Int("history", 1024, "epochs retained for /history")
	comboFlag := fs.String("combo", "Comb1", "server combination (Comb1..Comb6)")
	workloadFlag := fs.String("workload", workload.SPECjbb, "workload id")
	policyFlag := fs.String("policy", "GreenHetero", "allocation policy (Table III name)")
	traceFlag := fs.String("trace", "high", "solar trace: high or low")
	grid := fs.Float64("grid", 1000, "grid power budget (W)")
	panel := fs.Float64("panel", 2200, "PV array peak output (W)")
	seed := fs.Int64("seed", 7, "measurement noise seed")
	scenarioPath := fs.String("scenario", "", "load the rack from a JSON scenario file (overrides combo/workload/trace flags)")
	stateDir := fs.String("state-dir", "", "directory for the write-ahead log and snapshots; enables crash-safe resume across restarts")
	snapshotEvery := fs.Int("snapshot-every", 32, "epochs between WAL-compacting snapshots (with -state-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var session *sim.Session
	if *scenarioPath != "" {
		sc, err := scenario.LoadFile(*scenarioPath)
		if err != nil {
			return err
		}
		cfg, err := sc.Build()
		if err != nil {
			return err
		}
		session, err = sim.NewSession(cfg)
		if err != nil {
			return err
		}
	} else {
		var err error
		session, err = buildSession(*comboFlag, *workloadFlag, *policyFlag, *traceFlag, *grid, *panel, *seed)
		if err != nil {
			return err
		}
	}
	d, err := daemon.New(daemon.Config{
		Session:       session,
		Tick:          *tick,
		HistoryLimit:  *history,
		StateDir:      *stateDir,
		SnapshotEvery: *snapshotEvery,
	})
	if err != nil {
		return err
	}
	// Stop is safe in any state, so the deferred cleanup can be
	// registered before Start: an error path below still tears down —
	// and, with -state-dir, flushes a final checkpoint.
	defer d.Stop()
	if *stateDir != "" {
		if d.Recovered() {
			fmt.Printf("greenheterod: recovered state from %s, resuming at epoch %d\n",
				*stateDir, session.Epoch())
		} else {
			fmt.Printf("greenheterod: journaling state to %s (snapshot every %d epochs)\n",
				*stateDir, *snapshotEvery)
		}
	}
	if err := d.Start(); err != nil {
		return err
	}

	srv := &http.Server{Addr: *listen, Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	fmt.Printf("greenheterod: serving on http://%s (tick %v, combo %s, workload %s, policy %s)\n",
		*listen, *tick, *comboFlag, *workloadFlag, *policyFlag)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// The deferred Stop below writes the final checkpoint; saying so
		// here makes a clean SIGTERM distinguishable from a crash in logs.
		d.Stop()
		if *stateDir != "" {
			fmt.Printf("greenheterod: final checkpoint written to %s\n", *stateDir)
		}
		return nil
	}
}

// buildSession assembles the stepwise simulation from the flags.
func buildSession(combo, workloadID, policyName, traceName string, grid, panel float64, seed int64) (*sim.Session, error) {
	serverIDs, ok := comboServers[combo]
	if !ok {
		return nil, fmt.Errorf("unknown combo %q (have Comb1..Comb6)", combo)
	}
	groups := make([]server.Group, 0, len(serverIDs))
	for _, id := range serverIDs {
		spec, err := server.Lookup(id)
		if err != nil {
			return nil, err
		}
		groups = append(groups, server.Group{Spec: spec, Count: 5})
	}
	rack, err := server.NewRack(strings.ToLower(combo), groups...)
	if err != nil {
		return nil, err
	}
	w, err := workload.Lookup(workloadID)
	if err != nil {
		return nil, err
	}
	p, err := policy.ByName(policyName)
	if err != nil {
		return nil, err
	}
	profile, err := solar.ParseProfile(traceName)
	if err != nil {
		return nil, err
	}
	generate := solar.DefaultHigh
	if profile == solar.Low {
		generate = solar.DefaultLow
	}
	tr, err := generate(panel)
	if err != nil {
		return nil, err
	}
	return sim.NewSession(sim.Config{
		Rack:        rack,
		Workload:    w,
		Policy:      p,
		Solar:       tr,
		Epochs:      tr.Len(), // a full week, then the trace end holds
		GridBudgetW: grid,
		Seed:        seed,
	})
}

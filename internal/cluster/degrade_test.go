package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"greenhetero/internal/battery"
	"greenhetero/internal/breaker"
	"greenhetero/internal/runner"
	"greenhetero/internal/sim"
)

// scriptedDisturber adapts a function to the Disturber interface.
type scriptedDisturber func(epoch int, d *Disturbance)

func (f scriptedDisturber) Disturb(epoch int, d *Disturbance) { f(epoch, d) }

// TestNoOpDisturberUnchanged pins degraded mode's zero-cost contract:
// a disturber that never disturbs anything must leave the run
// bit-identical to a plain fleet run.
func TestNoOpDisturberUnchanged(t *testing.T) {
	plain, err := Run(twoRackConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(func(int, *Disturbance) {})
	disturbed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleetEqual(t, "no-op disturber", plain, disturbed)
	for _, h := range disturbed.Health {
		if h.FailedEpochs != 0 || h.QuarantinedEpochs != 0 || len(h.Quarantines) != 0 {
			t.Errorf("rack %s health dirtied by a no-op disturber: %+v", h.Name, h)
		}
	}
}

// TestBreakerQuarantineAndRejoin walks one rack through the full
// breaker cycle: two down epochs open it, the cooldown skips two more,
// and the half-open probe rejoins it with the recovery time recorded.
func TestBreakerQuarantineAndRejoin(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
		if e == 2 || e == 3 {
			d.Down[1] = true
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site) != cfg.Epochs {
		t.Fatalf("site epochs %d of %d: an epoch aborted", len(res.Site), cfg.Epochs)
	}
	h := res.Health[1]
	if h.FailedEpochs != 2 || h.QuarantinedEpochs != 2 {
		t.Errorf("failed=%d quarantined=%d, want 2/2", h.FailedEpochs, h.QuarantinedEpochs)
	}
	if h.ServedEpochs != cfg.Epochs-4 {
		t.Errorf("served=%d, want %d", h.ServedEpochs, cfg.Epochs-4)
	}
	if len(h.Quarantines) != 1 {
		t.Fatalf("quarantines = %+v", h.Quarantines)
	}
	q := h.Quarantines[0]
	if q.FromEpoch != 2 || q.RejoinEpoch != 6 || q.RecoveryEpochs != 4 {
		t.Errorf("quarantine = %+v, want {2 6 4}", q)
	}
	// The healthy rack is untouched, and the site flags the degradation.
	if h0 := res.Health[0]; h0.ServedEpochs != cfg.Epochs || h0.FailedEpochs != 0 {
		t.Errorf("healthy rack health: %+v", h0)
	}
	for e, se := range res.Site {
		wantDown := e >= 2 && e <= 5 // 2 failed + 2 cooling epochs
		if (se.DownRacks > 0) != wantDown {
			t.Errorf("epoch %d DownRacks=%d, want down=%v", e, se.DownRacks, wantDown)
		}
	}
	// The missing rack's share was redistributed (priced by its last bid).
	if res.Site[3].RedistributedW <= 0 {
		t.Error("no redistribution recorded while rack 1 was down")
	}
	if res.Site[0].RedistributedW != 0 {
		t.Errorf("redistribution %v before any failure", res.Site[0].RedistributedW)
	}
}

// TestBreakerDisabled: a negative threshold records failures but never
// quarantines, so the rack rejoins the moment the outage clears.
func TestBreakerDisabled(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Breaker = breaker.Config{FailureThreshold: -1}
	cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
		if e >= 2 && e < 5 {
			d.Down[1] = true
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health[1]
	if h.FailedEpochs != 3 || h.QuarantinedEpochs != 0 || len(h.Quarantines) != 0 {
		t.Errorf("health = %+v, want 3 failures and no quarantine", h)
	}
	if h.ServedEpochs != cfg.Epochs-3 {
		t.Errorf("served=%d, want %d", h.ServedEpochs, cfg.Epochs-3)
	}
}

// TestOpenQuarantineAtRunEnd: a rack still quarantined when the run
// ends gets an open episode with RejoinEpoch -1.
func TestOpenQuarantineAtRunEnd(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
		if e >= cfg.Epochs-3 {
			d.Down[1] = true
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health[1]
	if len(h.Quarantines) != 1 {
		t.Fatalf("quarantines = %+v", h.Quarantines)
	}
	q := h.Quarantines[0]
	if q.FromEpoch != cfg.Epochs-3 || q.RejoinEpoch != -1 || q.RecoveryEpochs != -1 {
		t.Errorf("open quarantine = %+v", q)
	}
}

// TestPartitionHeldAllocation: a partitioned rack keeps serving under
// its last granted allocation — no failures, no quarantine, and its
// held share comes off the top of the split.
func TestPartitionHeldAllocation(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
		if e >= 3 && e < 6 {
			d.Partitioned[1] = true
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health[1]
	if h.ServedEpochs != cfg.Epochs || h.PartitionedEpochs != 3 {
		t.Errorf("served=%d partitioned=%d, want %d/3", h.ServedEpochs, h.PartitionedEpochs, cfg.Epochs)
	}
	if h.FailedEpochs != 0 || len(h.Quarantines) != 0 {
		t.Errorf("partition charged the breaker: %+v", h)
	}
	if got := len(res.Racks[1].Result.Epochs); got != cfg.Epochs {
		t.Errorf("rack 1 recorded %d epochs, want %d", got, cfg.Epochs)
	}
}

// TestAbsentStartup: pre-startup epochs are skipped silently with no
// breaker or SLO bookkeeping, and the session stays on the site clock.
func TestAbsentStartup(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
		if e < 4 {
			d.Absent[1] = true
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health[1]
	if h.AbsentEpochs != 4 || h.ServedEpochs != cfg.Epochs-4 || h.FailedEpochs != 0 {
		t.Errorf("health = %+v", h)
	}
	eps := res.Racks[1].Result.Epochs
	if len(eps) != cfg.Epochs-4 || eps[0].Epoch != 4 {
		t.Fatalf("rack 1 first served epoch %d (%d recorded)", eps[0].Epoch, len(eps))
	}
}

// degradedStorm downs, partitions, derates and surges the two-rack
// fleet, then cuts its grid budget and ages its bank.
func degradedStorm(e int, d *Disturbance) {
	switch {
	case e == 2 || e == 3:
		d.Down[0] = true
	case e >= 5 && e < 8:
		d.Partitioned[1] = true
	case e == 9:
		d.PVScaleFrac[0] = 0.3
		d.IntensityScale[1] = 1.5
	case e == 11:
		d.GridBudgetScaleFrac = 0.5
		d.BatteryCapacityFrac = 0.9
	}
}

// TestDegradedDeterminism: a stormy run is bit-identical across
// parallelism levels — all mutation stays serial.
func TestDegradedDeterminism(t *testing.T) {
	run := func(par int) *FleetResult {
		cfg := twoRackConfig(t)
		cfg.Parallelism = par
		cfg.Disturber = scriptedDisturber(degradedStorm)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, par := range []int{4, 0} {
		fleetEqual(t, "degraded parallelism", serial, run(par))
	}
}

// fakeCk is a scripted Checkpointer: Commit fails at one epoch, then
// Recover fast-forwards the session like the WAL harness does.
type fakeCk struct {
	rack     int
	failAt   int
	commits  int
	recovers int
}

func (f *fakeCk) Rack() int { return f.rack }

func (f *fakeCk) Commit(e int, s *sim.Session) error {
	if e == f.failAt {
		return errors.New("torn write")
	}
	f.commits++
	return nil
}

func (f *fakeCk) Recover(e int, s *sim.Session) error {
	for s.Epoch() < e {
		s.SkipEpoch()
	}
	f.recovers++
	return nil
}

// TestCheckpointerCrashRecovery: a failed commit marks the rack dirty
// and charges its breaker; the next epoch recovers from durable state
// before the rack serves again.
func TestCheckpointerCrashRecovery(t *testing.T) {
	cfg := twoRackConfig(t)
	ck := &fakeCk{rack: 0, failAt: 3}
	cfg.Checkpointer = ck
	cfg.Disturber = scriptedDisturber(func(int, *Disturbance) {})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.recovers != 1 {
		t.Errorf("recovers = %d, want 1", ck.recovers)
	}
	if ck.commits != cfg.Epochs-1 {
		t.Errorf("commits = %d, want %d", ck.commits, cfg.Epochs-1)
	}
	h := res.Health[0]
	// The crash epoch still served (the physics happened), and the
	// recovery is recorded; one commit failure is below the threshold,
	// so no quarantine.
	if h.ServedEpochs != cfg.Epochs || h.Recoveries != 1 {
		t.Errorf("served=%d recoveries=%d, want %d/1", h.ServedEpochs, h.Recoveries, cfg.Epochs)
	}
	if len(h.Quarantines) != 0 {
		t.Errorf("single commit failure quarantined the rack: %+v", h.Quarantines)
	}
}

// bidRecorder wraps an Allocator and keeps a copy of every bid vector
// it is shown.
type bidRecorder struct {
	Allocator
	bids [][]float64
}

func (r *bidRecorder) Weights(bids []float64, site Supply, out []float64) error {
	r.bids = append(r.bids, append([]float64(nil), bids...))
	return r.Allocator.Weights(bids, site, out)
}

// rewindCk commits by exporting the session's state until epoch failAt,
// where the commit tears; Recover then restores the state exported at
// epoch keep, older than the crash. staleBidW is the bid the rack's
// session held at the torn commit.
type rewindCk struct {
	failAt, keep int
	kept         *sim.State
	staleBidW    float64
}

func (f *rewindCk) Rack() int { return 0 }

func (f *rewindCk) Commit(e int, s *sim.Session) error {
	if e == f.failAt {
		f.staleBidW, _ = s.DemandBidW()
		return errors.New("torn write")
	}
	if e == f.keep {
		st, err := s.ExportState()
		if err != nil {
			return err
		}
		f.kept = st
	}
	return nil
}

func (f *rewindCk) Recover(e int, s *sim.Session) error {
	if err := s.RestoreState(f.kept); err != nil {
		return err
	}
	for s.Epoch() < e {
		s.SkipEpoch()
	}
	return nil
}

// TestBidAfterRecoveryIsRestored: the bid a rack's worker computes after
// a step must not survive a WAL recovery. After the commit at epoch k
// tears, the allocator must see at k+1 the bid of the restored state,
// not the one the rack held before the crash.
func TestBidAfterRecoveryIsRestored(t *testing.T) {
	const k = 20
	for _, par := range []int{1, 4} {
		cfg := twoRackConfig(t)
		cfg.Parallelism = par
		ck := &rewindCk{failAt: k, keep: 1}
		rec := &bidRecorder{Allocator: HierarchicalPAR{}}
		cfg.Checkpointer, cfg.Allocator = ck, rec
		// A demand surge on rack 0 after the kept epoch widens its
		// believed peak, so the restored bid differs from the stale one.
		cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
			if e > ck.keep {
				d.IntensityScale[0] = 4
			}
		})
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h := res.Health[0]; h.Recoveries != 1 {
			t.Fatalf("par %d: recoveries = %d, want 1", par, h.Recoveries)
		}

		// An independent session of rack 0, restored from the kept state.
		site, err := battery.NewSiteBank(battery.DefaultConfig(), len(cfg.Racks))
		if err != nil {
			t.Fatal(err)
		}
		rc := cfg.Racks[0]
		twin, err := sim.NewSession(sim.Config{
			Rack: rc.Rack, Workload: rc.Workload, Policy: rc.Policy, Solar: cfg.Solar,
			Epochs: cfg.Epochs, Bank: site.Lease(0),
			Seed: runner.DeriveSeed(cfg.Seed, fmt.Sprintf("rack/0/%s", rc.Rack.Name())),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.RestoreState(ck.kept); err != nil {
			t.Fatal(err)
		}
		want, err := twin.DemandBidW()
		if err != nil {
			t.Fatal(err)
		}
		if want == ck.staleBidW {
			t.Fatalf("par %d: restored and pre-crash bids are both %v; the test cannot tell them apart", par, want)
		}
		if len(rec.bids) != cfg.Epochs {
			t.Fatalf("par %d: %d Weights calls in %d epochs", par, len(rec.bids), cfg.Epochs)
		}
		if got := rec.bids[k+1][0]; got != want {
			t.Errorf("par %d: epoch %d bid %v, want the restored %v (pre-crash %v)", par, k+1, got, want, ck.staleBidW)
		}
	}
}

// TestCheckpointerValidation rejects a checkpointer naming a rack
// outside the fleet.
func TestCheckpointerValidation(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Checkpointer = &fakeCk{rack: 9}
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range checkpointer rack accepted")
	}
}

// fleetMark is what a Step changes: the site trace's length, each
// rack's record count and each session's epoch.
func fleetMark(f *Fleet) []int {
	m := []int{len(f.Result().Site)}
	for i, s := range f.sessions {
		m = append(m, len(f.results[i].Epochs), s.Epoch())
	}
	return m
}

// TestFleetStepByStep steps TestDegradedDeterminism's stormy fleet by
// hand and checks the health ledger after every epoch: each epoch lands
// a rack in exactly one of served, failed, quarantined and absent,
// partitioned epochs are served ones, and every served epoch left one
// record. The final result is Run's, and a step past the end fails
// without touching a rack.
func TestFleetStepByStep(t *testing.T) {
	cfg := twoRackConfig(t)
	cfg.Disturber = scriptedDisturber(degradedStorm)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; !f.Done(); e++ {
		if err := f.Step(); err != nil {
			t.Fatalf("step %d: %v", e, err)
		}
		res := f.Result()
		if len(res.Site) != e {
			t.Fatalf("step %d: %d site epochs", e, len(res.Site))
		}
		for i, h := range res.Health {
			if got := h.ServedEpochs + h.FailedEpochs + h.QuarantinedEpochs + h.AbsentEpochs; got != e {
				t.Errorf("step %d rack %s: %d epochs accounted for: %+v", e, h.Name, got, h)
			}
			if h.PartitionedEpochs > h.ServedEpochs {
				t.Errorf("step %d rack %s: partitioned %d > served %d", e, h.Name, h.PartitionedEpochs, h.ServedEpochs)
			}
			if got := len(res.Racks[i].Result.Epochs); got != h.ServedEpochs {
				t.Errorf("step %d rack %s: %d records for %d served epochs", e, h.Name, got, h.ServedEpochs)
			}
		}
	}
	if got := len(f.Result().Site); got != cfg.Epochs {
		t.Fatalf("done after %d of %d epochs", got, cfg.Epochs)
	}
	ref := twoRackConfig(t)
	ref.Disturber = scriptedDisturber(degradedStorm)
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Result()
	fleetEqual(t, "stepped by hand", want, got)
	if !reflect.DeepEqual(want.Health, got.Health) {
		t.Errorf("health differs:\n%+v\n%+v", want.Health, got.Health)
	}

	mark := fleetMark(f)
	if err := f.Step(); err == nil {
		t.Error("Step after Done returned no error")
	}
	if after := fleetMark(f); !reflect.DeepEqual(mark, after) {
		t.Errorf("Step after Done moved the fleet: %v -> %v", mark, after)
	}
}

// TestIntensityAbort: a Disturber that writes a demand scale the
// session rejects aborts the run with sim.ErrBadConfig naming the
// lowest-index rack, identically at parallelism 1 and 4. The stopped
// fleet then returns the same error from every Step and touches no
// rack.
func TestIntensityAbort(t *testing.T) {
	const abortAt = 3
	build := func(par int) Config {
		cfg := twoRackConfig(t)
		cfg.Parallelism = par
		cfg.Disturber = scriptedDisturber(func(e int, d *Disturbance) {
			if e == abortAt {
				d.IntensityScale[0], d.IntensityScale[1] = 0, 0
			}
		})
		return cfg
	}
	var first string
	for _, par := range []int{1, 4} {
		res, err := Run(build(par))
		if res != nil || !errors.Is(err, sim.ErrBadConfig) || !strings.Contains(err.Error(), "rack rack-a: ") {
			t.Fatalf("parallelism %d: Run = %v, %v; want rack-a's bad config", par, res, err)
		}
		if par == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("parallelism %d: error %q, want %q as at parallelism 1", par, err, first)
		}
	}

	f, err := NewFleet(build(1))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < abortAt; e++ {
		if err := f.Step(); err != nil {
			t.Fatalf("step %d: %v", e, err)
		}
	}
	stop := f.Step()
	if stop == nil || stop.Error() != first {
		t.Fatalf("aborting step: %v, want %q", stop, first)
	}
	mark := fleetMark(f)
	if err := f.Step(); err != stop {
		t.Errorf("Step after the abort = %v, want the abort's error", err)
	}
	if after := fleetMark(f); !reflect.DeepEqual(mark, after) {
		t.Errorf("Step after the abort moved the fleet: %v -> %v", mark, after)
	}
}

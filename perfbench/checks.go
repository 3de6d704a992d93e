package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"greenhetero/internal/cluster"
	"greenhetero/internal/sim"
)

// digester hashes simulation outputs bit for bit: every float goes in
// as its IEEE-754 bits, so two runs share a digest only when their sim
// outputs are byte-identical.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester {
	return &digester{h: sha256.New(), buf: make([]byte, 0, 1<<16)}
}

func (d *digester) u(x uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
	if len(d.buf) >= 1<<16-8 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) b(x bool) {
	if x {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *digester) i(x int)      { d.u(uint64(int64(x))) }
func (d *digester) f(x float64)  { d.u(math.Float64bits(x)) }
func (d *digester) str(s string) { d.i(len(s)); d.buf = append(d.buf, s...) }
func (d *digester) flush() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}

func (d *digester) result(r *sim.Result) {
	d.str(r.Policy)
	d.str(r.Workload)
	d.i(r.BatteryCycles)
	d.f(r.EpochHours())
	d.i(len(r.Epochs))
	for k := range r.Epochs {
		e := &r.Epochs[k]
		d.i(e.Epoch)
		d.i(int(e.Case))
		for _, x := range [...]float64{e.Intensity, e.RenewableW, e.DemandW, e.SupplyW, e.GridW,
			e.BatteryOutW, e.BatteryInW, e.BatterySoC, e.Perf, e.UsedW, e.EPU} {
			d.f(x)
		}
		d.i(len(e.Fractions))
		for _, x := range e.Fractions {
			d.f(x)
		}
		d.b(e.TrainingRun)
	}
}

// rackDigest is the digest of one rack's simulation record.
func rackDigest(r *sim.Result) string {
	d := newDigester()
	d.result(r)
	return d.flush()
}

// fleetDigest is the digest of a whole fleet run: site trace, every
// rack record and every rack's degraded-mode history.
func fleetDigest(r *cluster.FleetResult) string {
	d := newDigester()
	d.str(r.Allocator)
	d.i(r.BatteryCycles)
	d.i(len(r.Site))
	for _, s := range r.Site {
		d.i(s.Epoch)
		for _, x := range [...]float64{s.RenewableW, s.BidW, s.SupplyW, s.GridW,
			s.BatteryOutW, s.BatteryInW, s.BatterySoC, s.RedistributedW} {
			d.f(x)
		}
		d.i(s.DownRacks)
		d.i(s.QuarantinedRacks)
	}
	d.i(len(r.Racks))
	for _, rr := range r.Racks {
		d.str(rr.Name)
		d.result(rr.Result)
	}
	d.i(len(r.Health))
	for _, h := range r.Health {
		d.str(h.Name)
		for _, x := range [...]int{h.ServedEpochs, h.FailedEpochs, h.QuarantinedEpochs,
			h.AbsentEpochs, h.PartitionedEpochs, h.Recoveries, len(h.Quarantines)} {
			d.i(x)
		}
		for _, q := range h.Quarantines {
			d.i(q.FromEpoch)
			d.i(q.RejoinEpoch)
			d.i(q.RecoveryEpochs)
		}
	}
	return d.flush()
}

// checker counts operations (rack·epochs) that fail an output check
// and keeps the first few reasons for the report.
type checker struct {
	failed int
	notes  []string
}

// fail charges n failed operations to one broken invariant.
func (c *checker) fail(n int, format string, args ...any) {
	c.failed += n
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// slack is the float tolerance for a bound of magnitude x.
func slack(x float64) float64 { return 1e-9*math.Abs(x) + 1e-6 }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// rackEpochOK checks one rack epoch against invariants that hold for
// any seed: a PAR vector of finite, non-negative fractions summing to
// at most 1; EPU in [0, 1]; grid draw within the epoch's budget; and
// supply no larger than renewable plus battery discharge plus grid.
func rackEpochOK(e *sim.EpochResult, gridBudgetW float64) (bool, string) {
	if !finite(e.RenewableW, e.DemandW, e.SupplyW, e.GridW, e.BatteryOutW, e.BatteryInW, e.Perf, e.UsedW, e.EPU) {
		return false, "non-finite epoch field"
	}
	var sum float64
	for _, f := range e.Fractions {
		if !finite(f) || f < 0 {
			return false, fmt.Sprintf("PAR fraction %v", f)
		}
		sum += f
	}
	if sum > 1+1e-9 {
		return false, fmt.Sprintf("PAR fractions sum to %v", sum)
	}
	if e.EPU < 0 || e.EPU > 1 {
		return false, fmt.Sprintf("EPU %v", e.EPU)
	}
	if e.GridW < -slack(gridBudgetW) || e.GridW > gridBudgetW+slack(gridBudgetW) {
		return false, fmt.Sprintf("grid %v W against budget %v W", e.GridW, gridBudgetW)
	}
	if src := e.RenewableW + e.BatteryOutW + e.GridW; e.SupplyW > src+slack(src) {
		return false, fmt.Sprintf("supply %v W exceeds sources %v W", e.SupplyW, src)
	}
	return true, ""
}

// checkRack checks every epoch of a single-rack run.
func checkRack(c *checker, r *sim.Result, epochs int, gridBudgetW float64) {
	if len(r.Epochs) != epochs {
		c.fail(epochs, "rack ran %d of %d epochs", len(r.Epochs), epochs)
		return
	}
	for k := range r.Epochs {
		if ok, why := rackEpochOK(&r.Epochs[k], gridBudgetW); !ok {
			c.fail(1, "epoch %d: %s", k, why)
		}
	}
}

// checkFleet checks a fleet run. siteGridW(e) is the site grid budget
// in force at epoch e (after any price-spike scaling); no rack and no
// site total may draw more. Every rack's epochs must land in exactly
// one of served, failed, quarantined or absent, and it must hold one
// record per served epoch.
func checkFleet(c *checker, r *cluster.FleetResult, epochs int, siteGridW func(e int) float64) {
	n := len(r.Racks)
	if len(r.Site) != epochs || len(r.Health) != n {
		c.fail(n*epochs, "fleet ran %d of %d epochs, %d health records for %d racks", len(r.Site), epochs, len(r.Health), n)
		return
	}
	for i, rr := range r.Racks {
		h := r.Health[i]
		if got := h.ServedEpochs + h.FailedEpochs + h.QuarantinedEpochs + h.AbsentEpochs; got != epochs {
			c.fail(epochs, "rack %s: served+failed+quarantined+absent = %d, want %d", rr.Name, got, epochs)
			continue
		}
		if len(rr.Result.Epochs) != h.ServedEpochs {
			c.fail(epochs, "rack %s: %d records for %d served epochs", rr.Name, len(rr.Result.Epochs), h.ServedEpochs)
			continue
		}
		for k := range rr.Result.Epochs {
			e := &rr.Result.Epochs[k]
			if ok, why := rackEpochOK(e, siteGridW(e.Epoch)); !ok {
				c.fail(1, "rack %s epoch %d: %s", rr.Name, e.Epoch, why)
			}
		}
	}
	for _, s := range r.Site {
		if b := siteGridW(s.Epoch); !finite(s.GridW) || s.GridW > b+slack(b) {
			c.fail(n, "site epoch %d: grid %v W against budget %v W", s.Epoch, s.GridW, b)
		}
	}
}

package battery

import (
	"math"
	"testing"
	"time"
)

// Store conformance: both the rack bank and the site lease satisfy the
// controller-facing interface.
var (
	_ Store = (*Bank)(nil)
	_ Store = (*Lease)(nil)
)

const epoch = 15 * time.Minute

func siteBank(t *testing.T, racks int) *SiteBank {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CapacityWh = 48000
	s, err := NewSiteBank(cfg, racks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSiteBankValidation(t *testing.T) {
	if _, err := NewSiteBank(DefaultConfig(), 0); err == nil {
		t.Error("racks=0: want error")
	}
	if _, err := NewSiteBank(Config{}, 4); err == nil {
		t.Error("zero config: want error")
	}
}

func TestCarveSplitsBudgetsByWeight(t *testing.T) {
	s := siteBank(t, 2)
	if err := s.Bank().SetSoC(0.8); err != nil {
		t.Fatal(err)
	}
	weights := []float64{0.75, 0.25}
	if err := s.Carve(weights, epoch); err != nil {
		t.Fatal(err)
	}
	avail := s.Bank().AvailableDischargeW(epoch)
	acc := s.Bank().AcceptableChargeW(epoch)
	for i, w := range weights {
		l := s.Lease(i)
		if got := l.AvailableDischargeW(epoch); got != w*avail {
			t.Errorf("lease %d discharge budget = %v, want %v", i, got, w*avail)
		}
		if got := l.AcceptableChargeW(epoch); got != w*acc {
			t.Errorf("lease %d charge budget = %v, want %v", i, got, w*acc)
		}
		if got := l.SoC(); got != s.Bank().SoC() {
			t.Errorf("lease %d SoC = %v, want carve-time %v", i, got, s.Bank().SoC())
		}
		if l.AtDoD() != s.Bank().AtDoD() {
			t.Errorf("lease %d AtDoD = %v, want %v", i, l.AtDoD(), s.Bank().AtDoD())
		}
	}
	if err := s.Carve([]float64{1}, epoch); err == nil {
		t.Error("wrong weight count: want error")
	}
}

func TestLeaseBudgetEnforcement(t *testing.T) {
	s := siteBank(t, 2)
	if err := s.Carve([]float64{0.5, 0.5}, epoch); err != nil {
		t.Fatal(err)
	}
	l := s.Lease(0)
	budget := l.AvailableDischargeW(epoch)
	if got := l.Discharge(budget*2, epoch); got != budget {
		t.Errorf("Discharge over budget delivered %v, want clamp to %v", got, budget)
	}
	if got := l.Discharge(1, epoch); got != 0 {
		t.Errorf("Discharge on exhausted budget delivered %v, want 0", got)
	}
	// SoC estimate moved by the lease's own flow only.
	wantWh := s.Bank().ChargeWh() - budget*epoch.Hours()
	if got := l.SoC() * 48000; math.Abs(got-wantWh) > 1e-6 {
		t.Errorf("lease siteWh = %v, want %v", got, wantWh)
	}
	// The sibling lease is unaffected.
	if got := s.Lease(1).SoC(); got != s.Bank().SoC() {
		t.Errorf("sibling lease SoC moved to %v", got)
	}
}

// TestSettleMatchesDirectBankFlows proves the carve→lease→settle path
// applies exactly the flows a single-owner bank would see, including
// cycle accounting and the grid-charged split.
func TestSettleMatchesDirectBankFlows(t *testing.T) {
	s := siteBank(t, 3)
	direct, err := New(s.Bank().cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Carve([]float64{0.5, 0.3, 0.2}, epoch); err != nil {
		t.Fatal(err)
	}
	d0 := s.Lease(0).Discharge(4000, epoch)
	d1 := s.Lease(1).Discharge(2500, epoch)
	c2 := s.Lease(2).Charge(10, epoch, SourceGrid)
	st := s.Settle(epoch)

	if st.DischargeW != d0+d1 || st.ChargeGridW != c2 || st.ChargeRenewableW != 0 {
		t.Errorf("settlement %+v, want discharge %v grid-charge %v", st, d0+d1, c2)
	}
	direct.Discharge(d0, epoch)
	direct.Discharge(d1, epoch)
	direct.Charge(c2, epoch, SourceGrid)
	if s.Bank().State() != direct.State() {
		t.Errorf("settled bank state %+v != direct replay %+v", s.Bank().State(), direct.State())
	}

	// Leases are zeroed: a second settle is a no-op.
	before := s.Bank().State()
	if st2 := s.Settle(epoch); st2 != (Settlement{}) || s.Bank().State() != before {
		t.Errorf("second Settle moved state: %+v", st2)
	}
}

// TestSettleNeverClips: the per-lease budgets sum to at most the bank's
// own limits, so replaying them is never cut off by the DoD floor.
func TestSettleNeverClips(t *testing.T) {
	s := siteBank(t, 4)
	weights := []float64{0.25, 0.25, 0.25, 0.25}
	for e := 0; e < 200; e++ {
		if err := s.Carve(weights, epoch); err != nil {
			t.Fatal(err)
		}
		var want float64
		for i := 0; i < 4; i++ {
			want += s.Lease(i).Discharge(1e9, epoch) // drain the full budget
		}
		st := s.Settle(epoch)
		if math.Abs(st.DischargeW-want) > 1e-6 {
			t.Fatalf("epoch %d: settled %v W of %v W requested", e, st.DischargeW, want)
		}
		if s.Bank().AtDoD() {
			return // drained to the floor without clipping
		}
	}
	t.Fatal("bank never reached the DoD floor")
}

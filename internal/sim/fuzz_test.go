package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"greenhetero/internal/battery"
	"greenhetero/internal/policy"
	"greenhetero/internal/server"
	"greenhetero/internal/trace"
	"greenhetero/internal/workload"
)

// maxFuzzDraws caps a fuzzed snapshot's RNG draw count: RestoreState
// accepts up to maxRestoreDraws, a fast-forward far too long for one
// fuzz input.
const maxFuzzDraws = 1 << 12

// fuzzSession is the small fixed session FuzzRestoreState restores
// into: the Comb1 rack over a 12-epoch trace.
func fuzzSession(t testing.TB) *Session {
	t.Helper()
	cfg := baseConfig(t)
	cfg.Epochs = 12
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzRestoreState feeds decoded snapshots to RestoreState. Invariant:
// every input is rejected with an error or restores into a session
// that steps on without panicking.
func FuzzRestoreState(f *testing.F) {
	add := func(st *State) {
		b, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	s := fuzzSession(f)
	var st *State
	for i := 0; i < 4; i++ {
		var err error
		if st, err = s.ExportState(); err != nil {
			f.Fatal(err)
		}
		add(st)
		if _, err := s.Step(); err != nil {
			f.Fatal(err)
		}
	}
	// Extreme values in an otherwise valid snapshot, one field each.
	for _, mut := range []func(*State){
		func(m *State) { m.Epoch = math.MaxInt },
		func(m *State) { m.PrevDemandW = math.MaxFloat64 },
		func(m *State) { m.Battery.ChargeWh = math.MaxFloat64 },
		func(m *State) { m.Battery.ChargeWh, m.Battery.Cycles = -1, -1 },
		func(m *State) { m.Controller.Epoch = math.MaxInt },
		func(m *State) {
			m.Controller.Renewable = json.RawMessage(`{"alpha":0.5,"beta":0.3,"level":1e308,"trend":1e308,"primed":2}`)
		},
		func(m *State) {
			m.Controller.Demand = json.RawMessage(`{"alpha":7,"beta":-3,"level":-1e308,"trend":0,"primed":-5}`)
		},
	} {
		m := *st
		mut(&m)
		add(&m)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"policy":"GreenHetero","rngDraws":99999999999}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		if json.Unmarshal(b, &st) != nil {
			return
		}
		st.RNGDraws %= maxFuzzDraws
		s := fuzzSession(t)
		if s.RestoreState(&st) != nil {
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Step(); err != nil {
				return
			}
		}
	})
}

// FuzzNewSession builds sessions from fuzzed Config fields — rack,
// workloads, policy, epochs, grid budget, battery, seed, training
// noise, initial SoC, intensity and a hand-built solar trace that skips
// trace.New. Invariant: NewSession or a Step returns an error, or every
// EpochResult of the run is finite; nothing panics.
func FuzzNewSession(f *testing.F) {
	samples := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	quarter := int64(15 * time.Minute)
	day := samples(0, 400, 1500, 2200, 1800, 600, 0, 0)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), 0.0, 0.0, 0.0, quarter, day)
	f.Add(uint8(0x19), uint8(0x83), uint8(1), uint8(6), 0.0, 5000.0, 0.4, int64(-3), 1.0, 0.6, 0.5, quarter, day)
	f.Add(uint8(0x2a), uint8(12), uint8(2), uint8(3), 250.0, 0.0, 0.0, int64(1), 3.0, 0.0, 1.0, int64(time.Hour), samples(3000))
	f.Add(uint8(0x07), uint8(5), uint8(3), uint8(4), 1000.0, 0.0, 0.0, int64(9), 0.0, 0.0, 0.0, int64(48*time.Hour), []byte{})
	// Non-finite and out-of-range knobs, one per input.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), inf, 0.0, 0.0, int64(7), 0.0, 0.0, 0.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), nan, 0.0, 0.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), -2.0, 0.0, 0.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), 0.0, nan, 0.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), 0.0, 0.0, nan, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), 0.0, 0.0, 4.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, 0.0, 0.0, int64(7), 0.0, 0.0, -1.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1000.0, inf, 0.4, int64(7), 0.0, 0.0, 0.0, quarter, day)
	f.Add(uint8(0x04), uint8(0), uint8(4), uint8(8), 1e308, 1e308, 0.4, int64(7), 0.0, 0.0, 0.0, quarter, samples(1e308, 1e308))

	specs := server.Catalog()
	loads := workload.Catalog()
	f.Fuzz(func(t *testing.T, rackSel, wlSel, polSel, epochs uint8, gridW, capacityWh, dod float64,
		seed int64, trainingNoise, initialSoC, intensity float64, stepNs int64, solar []byte) {
		// rackSel: bits 0–1 give one to three groups, the bits from 2 up
		// pick the first group's catalog spec (each later group steps
		// two entries on), and bits 4+i and 5+i give group i's count.
		groups := make([]server.Group, 1+int(rackSel&3)%3)
		for i := range groups {
			groups[i] = server.Group{
				Spec:  specs[(int(rackSel>>2)+2*i)%len(specs)],
				Count: 1 + int(rackSel>>(4+i))&3,
			}
		}
		rack, err := server.NewRack("fuzz", groups...)
		if err != nil {
			return
		}
		policies := policy.All()
		cfg := Config{
			Rack:          rack,
			Workload:      loads[int(wlSel&0x7f)%len(loads)],
			Policy:        policies[int(polSel)%len(policies)],
			Epochs:        int(epochs % 16),
			GridBudgetW:   gridW,
			Seed:          seed,
			TrainingNoise: trainingNoise,
			InitialSoC:    initialSoC,
		}
		if wlSel&0x80 != 0 {
			cfg.GroupWorkloads = make([]workload.Workload, len(groups))
			for i := range cfg.GroupWorkloads {
				cfg.GroupWorkloads[i] = loads[(int(wlSel&0x7f)+3*i)%len(loads)]
			}
		}
		if capacityWh != 0 {
			cfg.Battery = battery.Config{CapacityWh: capacityWh, DepthOfDischarge: dod, Efficiency: 0.8}
		}
		if intensity != 0 {
			cfg.Intensity = ConstantIntensity(intensity)
		}
		tr := &trace.Trace{Name: "fuzz", Start: simStart, Step: time.Duration(stepNs)}
		for len(solar) >= 8 && len(tr.Values) < 32 {
			tr.Values = append(tr.Values, math.Float64frombits(binary.LittleEndian.Uint64(solar)))
			solar = solar[8:]
		}
		cfg.Solar = tr

		s, err := NewSession(cfg)
		if err != nil {
			return
		}
		for !s.Done() {
			er, err := s.Step()
			if err != nil {
				return
			}
			if name, v, ok := nonFinite(er); ok {
				t.Fatalf("epoch %d: %s = %v (config %+v, trace %v)", er.Epoch, name, v, cfg, tr.Values)
			}
		}
	})
}

// nonFinite names an epoch result's first NaN or infinite field.
func nonFinite(er EpochResult) (string, float64, bool) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Intensity", er.Intensity}, {"RenewableW", er.RenewableW}, {"DemandW", er.DemandW},
		{"SupplyW", er.SupplyW}, {"GridW", er.GridW}, {"BatteryOutW", er.BatteryOutW},
		{"BatteryInW", er.BatteryInW}, {"BatterySoC", er.BatterySoC}, {"Perf", er.Perf},
		{"UsedW", er.UsedW}, {"EPU", er.EPU},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f.name, f.v, true
		}
	}
	for i, v := range er.Fractions {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("Fractions[%d]", i), v, true
		}
	}
	return "", 0, false
}

package chaos

import (
	"math"
	"testing"

	"greenhetero/internal/cluster"
)

func disturbAt(t *testing.T, eng *Engine, n, epoch int) *cluster.Disturbance {
	t.Helper()
	d := cluster.NewDisturbance(n)
	eng.Disturb(epoch, d)
	return d
}

func TestJoinEpochs(t *testing.T) {
	instant, err := JoinEpochs(8, StartupInstant, 0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range instant {
		if j != 0 {
			t.Errorf("instant rack %d joins at %d", i, j)
		}
	}

	linear, err := JoinEpochs(8, StartupLinear, 4, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if linear[0] != 0 {
		t.Errorf("linear first join %d", linear[0])
	}
	for i := 1; i < len(linear); i++ {
		if linear[i] < linear[i-1] || linear[i] > 4 {
			t.Errorf("linear joins not a ramp: %v", linear)
			break
		}
	}

	wave, err := JoinEpochs(8, StartupWave, 4, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, j := range wave {
		distinct[j] = true
	}
	if len(distinct) != 2 {
		t.Errorf("wave with 2 waves produced %d cohorts: %v", len(distinct), wave)
	}

	exp, err := JoinEpochs(16, StartupExponential, 8, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exp[0] != 0 || exp[15] != 8 {
		t.Errorf("exponential endpoints: %v", exp)
	}

	// Jitter is seeded: same seed same joins, all non-negative.
	j1, err := JoinEpochs(32, StartupLinear, 8, 0, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := JoinEpochs(32, StartupLinear, 8, 0, 0.5, 42)
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatal("jittered joins differ across same-seed calls")
		}
		if j1[i] < 0 {
			t.Errorf("rack %d joins at %d", i, j1[i])
		}
	}

	for _, bad := range []struct {
		name string
		fn   func() ([]int, error)
	}{
		{"no racks", func() ([]int, error) { return JoinEpochs(0, StartupInstant, 0, 0, 0, 1) }},
		{"unknown pattern", func() ([]int, error) { return JoinEpochs(4, "warp", 2, 0, 0, 1) }},
		{"bad jitter", func() ([]int, error) { return JoinEpochs(4, StartupLinear, 2, 0, 1.0, 1) }},
		{"wave without waves", func() ([]int, error) { return JoinEpochs(4, StartupWave, 2, 0, 0, 1) }},
		{"negative ramp", func() ([]int, error) { return JoinEpochs(4, StartupLinear, -1, 0, 0, 1) }},
	} {
		if _, err := bad.fn(); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

func TestEngineZoneOutage(t *testing.T) {
	eng, err := NewEngine(Config{
		Racks: 8, Zones: 4, Epochs: 10, Seed: 1, WALRack: -1,
		Events: []Event{{Kind: KindZoneOutage, At: 2, Duration: 2, Zone: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := disturbAt(t, eng, 8, 2)
	for i := 0; i < 8; i++ {
		want := i%4 == 1
		if d.Down[i] != want {
			t.Errorf("epoch 2 rack %d down=%v, want %v", i, d.Down[i], want)
		}
	}
	if d := disturbAt(t, eng, 8, 4); d.Down[1] || d.Down[5] {
		t.Error("outage leaked past its window")
	}
}

func TestEngineWeatherFront(t *testing.T) {
	const racks, width = 10, 4
	eng, err := NewEngine(Config{
		Racks: racks, Epochs: 12, Seed: 1, WALRack: -1,
		Events: []Event{{Kind: KindWeatherFront, At: 0, Duration: 6, WidthRacks: width, DepthFrac: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for e := 0; e < 6; e++ {
		d := disturbAt(t, eng, racks, e)
		band := 0
		for i, f := range d.PVScaleFrac {
			switch f {
			case 1:
			case 0.5:
				covered[i] = true
				band++
			default:
				t.Fatalf("epoch %d rack %d PV scale %v", e, i, f)
			}
		}
		if band > width+1 {
			t.Errorf("epoch %d band %d racks, width %d", e, band, width)
		}
	}
	if len(covered) != racks {
		t.Errorf("sweep covered %d of %d racks", len(covered), racks)
	}
	if d := disturbAt(t, eng, racks, 6); d.PVScaleFrac[0] != 1 {
		t.Error("front leaked past its window")
	}
}

func TestEnginePriceSpikeAndFade(t *testing.T) {
	eng, err := NewEngine(Config{
		Racks: 4, Epochs: 16, Seed: 1, WALRack: -1,
		Events: []Event{
			{Kind: KindPriceSpike, At: 2, Duration: 4, PriceScale: 3, GridBudgetScale: 0.5},
			{Kind: KindBatteryFade, At: 5, FadeFrac: 0.2},
			{Kind: KindBatteryFade, At: 8, FadeFrac: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.PriceScale(1); got != 1 {
		t.Errorf("price scale before spike = %v", got)
	}
	if got := eng.PriceScale(3); got != 3 {
		t.Errorf("price scale in spike = %v", got)
	}
	if d := disturbAt(t, eng, 4, 3); d.GridBudgetScaleFrac != 0.5 {
		t.Errorf("grid budget scale in spike = %v", d.GridBudgetScaleFrac)
	}
	if d := disturbAt(t, eng, 4, 6); d.GridBudgetScaleFrac != 1 {
		t.Errorf("grid budget scale after spike = %v", d.GridBudgetScaleFrac)
	}
	// Fades are permanent and compound.
	if d := disturbAt(t, eng, 4, 4); d.BatteryCapacityFrac != 1 {
		t.Errorf("capacity before fade = %v", d.BatteryCapacityFrac)
	}
	if d := disturbAt(t, eng, 4, 6); d.BatteryCapacityFrac != 0.8 {
		t.Errorf("capacity after first fade = %v", d.BatteryCapacityFrac)
	}
	if d := disturbAt(t, eng, 4, 10); d.BatteryCapacityFrac != 0.8*0.5 {
		t.Errorf("capacity after both fades = %v", d.BatteryCapacityFrac)
	}
}

func TestEngineSurgeAndPartition(t *testing.T) {
	eng, err := NewEngine(Config{
		Racks: 4, Epochs: 10, Seed: 1, WALRack: -1,
		Events: []Event{
			{Kind: KindWorkloadSurge, At: 1, Duration: 2, IntensityScale: 1.5},
			{Kind: KindAgentPartition, At: 4, Duration: 2, Racks: []int{1, 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := disturbAt(t, eng, 4, 1)
	for i, s := range d.IntensityScale {
		if s != 1.5 {
			t.Errorf("surge epoch rack %d intensity %v", i, s)
		}
	}
	d = disturbAt(t, eng, 4, 4)
	if !d.Partitioned[1] || !d.Partitioned[2] || d.Partitioned[0] || d.Partitioned[3] {
		t.Errorf("partitioned = %v", d.Partitioned)
	}
	d = disturbAt(t, eng, 4, 6)
	if d.Partitioned[1] {
		t.Error("partition did not heal after its window")
	}
}

func TestEngineCascadeDeterministic(t *testing.T) {
	cfg := Config{
		Racks: 32, Epochs: 20, Seed: 99, WALRack: -1,
		Events: []Event{{
			Kind: KindRackCrash, At: 2, Racks: []int{5},
			Fanout: 2, Depth: 3, RecoveryEpochs: 4, JitterFrac: 0.3,
		}},
	}
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxDown := 0
	for e := 0; e < 20; e++ {
		da := disturbAt(t, a, 32, e)
		db := disturbAt(t, b, 32, e)
		down := 0
		for i := range da.Down {
			if da.Down[i] != db.Down[i] {
				t.Fatalf("epoch %d rack %d differs across same-seed engines", e, i)
			}
			if da.Down[i] {
				down++
			}
		}
		if down > maxDown {
			maxDown = down
		}
	}
	if maxDown < 2 {
		t.Errorf("cascade with fanout 2 depth 3 peaked at %d racks down", maxDown)
	}
	if d := disturbAt(t, a, 32, 2); !d.Down[5] {
		t.Error("seed rack not down at the crash epoch")
	}
}

func TestEngineDaemonCrash(t *testing.T) {
	cfg := Config{
		Racks: 4, Epochs: 12, Seed: 7, WALRack: 2,
		Events: []Event{{Kind: KindDaemonCrash, At: 5, Duration: 3}},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arm := eng.DaemonArm()
	k, ok := arm[5]
	if !ok || (k != 1 && k != 2) {
		t.Fatalf("daemon arm = %v, want crashpoint 1 or 2 at epoch 5", arm)
	}
	// The crash epoch itself still steps (the commit tears after); the
	// daemon is down for the following Duration epochs.
	if d := disturbAt(t, eng, 4, 5); d.Down[2] {
		t.Error("WAL rack down during the crash epoch itself")
	}
	for e := 6; e < 9; e++ {
		if d := disturbAt(t, eng, 4, e); !d.Down[2] {
			t.Errorf("WAL rack not down at epoch %d", e)
		}
	}
	if d := disturbAt(t, eng, 4, 9); d.Down[2] {
		t.Error("daemon outage leaked past its window")
	}

	cfg.WALRack = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("daemon_crash without a WAL rack accepted")
	}
}

func TestEngineJoins(t *testing.T) {
	eng, err := NewEngine(Config{
		Racks: 4, Epochs: 8, Seed: 1, WALRack: -1,
		JoinEpochs: []int{0, 2, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := disturbAt(t, eng, 4, 1)
	if d.Absent[0] || !d.Absent[1] || !d.Absent[3] {
		t.Errorf("epoch 1 absent = %v", d.Absent)
	}
	if d := disturbAt(t, eng, 4, 4); d.Absent[3] {
		t.Error("rack 3 still absent at its join epoch")
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	one := func(ev Event) Config {
		return Config{Racks: 2, Epochs: 4, WALRack: -1, Events: []Event{ev}}
	}
	for _, tt := range []struct {
		name string
		cfg  Config
	}{
		{"no racks", Config{Racks: 0, Epochs: 4, WALRack: -1}},
		{"no epochs", Config{Racks: 2, Epochs: 0, WALRack: -1}},
		{"wal rack out of range", Config{Racks: 2, Epochs: 4, WALRack: 5}},
		{"join epochs mis-sized", Config{Racks: 2, Epochs: 4, WALRack: -1, JoinEpochs: []int{0}}},
		{"event epoch out of range", Config{Racks: 2, Epochs: 4, WALRack: -1,
			Events: []Event{{Kind: KindZoneOutage, At: 9, Duration: 1}}}},
		{"event rack out of range", Config{Racks: 2, Epochs: 4, WALRack: -1,
			Events: []Event{{Kind: KindRackCrash, At: 1, Racks: []int{7}, RecoveryEpochs: 1}}}},
		{"unknown kind", Config{Racks: 2, Epochs: 4, WALRack: -1,
			Events: []Event{{Kind: "meteor", At: 1}}}},
		// One row per kind rule.
		{"jitter on a non-crash event", one(Event{Kind: KindZoneOutage, At: 1, Duration: 1, JitterFrac: 1.5})},
		{"NaN jitter", one(Event{Kind: KindRackCrash, At: 1, Racks: []int{0}, RecoveryEpochs: 1, JitterFrac: math.NaN()})},
		{"windowed event without duration", one(Event{Kind: KindAgentPartition, At: 1})},
		{"crash without seed racks", one(Event{Kind: KindRackCrash, At: 1, RecoveryEpochs: 1})},
		{"crash without recovery", one(Event{Kind: KindRackCrash, At: 1, Racks: []int{0}})},
		{"negative fanout", one(Event{Kind: KindRackCrash, At: 1, Racks: []int{0}, RecoveryEpochs: 1, Fanout: -1})},
		{"negative depth", one(Event{Kind: KindRackCrash, At: 1, Racks: []int{0}, RecoveryEpochs: 1, Depth: -1})},
		{"zone out of range", one(Event{Kind: KindZoneOutage, At: 1, Duration: 1, Zone: 1})},
		{"front without width", one(Event{Kind: KindWeatherFront, At: 1, Duration: 1, DepthFrac: 0.5})},
		{"front depth above 1", one(Event{Kind: KindWeatherFront, At: 1, Duration: 1, WidthRacks: 1, DepthFrac: 1.5})},
		{"front depth zero", one(Event{Kind: KindWeatherFront, At: 1, Duration: 1, WidthRacks: 1})},
		{"infinite price", one(Event{Kind: KindPriceSpike, At: 1, Duration: 1, PriceScale: math.Inf(1)})},
		{"NaN price", one(Event{Kind: KindPriceSpike, At: 1, Duration: 1, PriceScale: math.NaN()})},
		{"negative price", one(Event{Kind: KindPriceSpike, At: 1, Duration: 1, PriceScale: -2})},
		{"grid budget scale above 1", one(Event{Kind: KindPriceSpike, At: 1, Duration: 1, GridBudgetScale: 1.5})},
		{"negative grid budget scale", one(Event{Kind: KindPriceSpike, At: 1, Duration: 1, GridBudgetScale: -0.5})},
		{"fade of 1", one(Event{Kind: KindBatteryFade, At: 1, FadeFrac: 1})},
		{"fade of 0", one(Event{Kind: KindBatteryFade, At: 1})},
		{"infinite surge", one(Event{Kind: KindWorkloadSurge, At: 1, Duration: 1, IntensityScale: math.Inf(1)})},
		{"zero surge", one(Event{Kind: KindWorkloadSurge, At: 1, Duration: 1})},
		{"daemon crash without WAL rack", one(Event{Kind: KindDaemonCrash, At: 1, Duration: 1})},
	} {
		if _, err := NewEngine(tt.cfg); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
		if err := tt.cfg.Validate(); err == nil {
			t.Errorf("Validate accepts %s", tt.name)
		}
	}
}

package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCatalogMatchesTable2(t *testing.T) {
	specs := Catalog()
	if len(specs) != 6 {
		t.Fatalf("catalog size = %d, want 6", len(specs))
	}
	tests := []struct {
		id           string
		peakW, idleW float64
		cores        int
		class        Class
	}{
		{XeonE52620, 178, 88, 12, ClassCPU},
		{XeonE52650, 112, 66, 8, ClassCPU},
		{XeonE52603, 79, 58, 4, ClassCPU},
		{CoreI78700K, 88, 39, 6, ClassCPU},
		{CoreI54460, 96, 47, 4, ClassCPU},
		{TitanXp, 411, 149, 3840, ClassGPU},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			s, err := Lookup(tt.id)
			if err != nil {
				t.Fatal(err)
			}
			if s.PeakW != tt.peakW || s.IdleW != tt.idleW || s.Cores != tt.cores || s.Class != tt.class {
				t.Errorf("spec %+v does not match Table II", s)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("catalog spec invalid: %v", err)
			}
		})
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("pdp-11"); err == nil {
		t.Error("unknown lookup should error")
	}
}

func TestCatalogIsACopy(t *testing.T) {
	c := Catalog()
	c[0].PeakW = 1
	s, err := Lookup(XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	if s.PeakW != 178 {
		t.Error("Catalog must return a copy")
	}
}

func TestValidate(t *testing.T) {
	base, err := Lookup(XeonE52620)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty id", func(s *Spec) { s.ID = "" }},
		{"bad class", func(s *Spec) { s.Class = 0 }},
		{"zero freq", func(s *Spec) { s.BaseFreqMHz = 0 }},
		{"zero sockets", func(s *Spec) { s.Sockets = 0 }},
		{"zero cores", func(s *Spec) { s.Cores = 0 }},
		{"zero idle", func(s *Spec) { s.IdleW = 0 }},
		{"peak below idle", func(s *Spec) { s.PeakW = s.IdleW - 1 }},
		{"one dvfs level", func(s *Spec) { s.DVFSLevels = 1 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			tt.mut(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestStatesOrderedAndBounded(t *testing.T) {
	for _, s := range Catalog() {
		states := s.States()
		// The rack's ladder is the spec's.
		r, err := NewRack("one", Group{s, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.states[0], states) {
			t.Errorf("%s: rack ladder %v, want %v", s.ID, r.states[0], states)
		}
		for _, st := range states[1:] {
			if want := fmt.Sprintf("freq-%.0fMHz", st.FreqMHz); st.Name != want {
				t.Errorf("%s: state name %q, want %q", s.ID, st.Name, want)
			}
		}
		if len(states) != s.DVFSLevels+1 {
			t.Errorf("%s: %d states, want %d", s.ID, len(states), s.DVFSLevels+1)
		}
		if states[0].Name != "sleep" || states[0].FreqMHz != 0 {
			t.Errorf("%s: first state = %+v, want sleep", s.ID, states[0])
		}
		if !sort.SliceIsSorted(states, func(i, j int) bool { return states[i].Watts < states[j].Watts }) {
			t.Errorf("%s: states not ordered by power", s.ID)
		}
		top := states[len(states)-1]
		if top.Watts > s.PeakW+1e-9 || top.FreqMHz != s.BaseFreqMHz {
			t.Errorf("%s: top state = %+v, want peak %vW @ %vMHz", s.ID, top, s.PeakW, s.BaseFreqMHz)
		}
	}
}

// TestRackLadderShared: a catalog spec's rack ladder is the one built at
// start-up, shared by every rack that uses the spec; a modified spec gets
// its own. Either way the ladder equals Spec.States(), names included.
func TestRackLadderShared(t *testing.T) {
	modified := mustSpec(t, XeonE52620)
	modified.PeakW += 10
	for _, s := range append(Catalog(), modified) {
		r1, err := NewRack("one", Group{s, 1})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewRack("two", Group{s, 3})
		if err != nil {
			t.Fatal(err)
		}
		want := s.States()
		if !slices.Equal(r1.states[0], want) || !slices.Equal(r2.states[0], want) {
			t.Errorf("%s (peak %v): rack ladders %v, %v, want %v", s.ID, s.PeakW, r1.states[0], r2.states[0], want)
		}
		shared := &r1.states[0][0] == &r2.states[0][0]
		if inCatalog := s == mustSpec(t, s.ID); shared != inCatalog {
			t.Errorf("%s (peak %v): ladder shared = %v, want %v", s.ID, s.PeakW, shared, inCatalog)
		}
	}
}

func TestStateForPower(t *testing.T) {
	s := mustSpec(t, XeonE52620)
	r, err := NewRack("x", Group{s, 1})
	if err != nil {
		t.Fatal(err)
	}
	states := s.States()
	tests := []struct {
		name    string
		targetW float64
		want    string
	}{
		{"below running floor", 10, "sleep"},
		{"at peak", s.PeakW, states[len(states)-1].Name},
		{"above peak", s.PeakW + 100, states[len(states)-1].Name},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := r.StateForPower(0, tt.targetW)
			if got.Name != tt.want {
				t.Errorf("StateForPower(%v) = %q, want %q", tt.targetW, got.Name, tt.want)
			}
		})
	}
	// Mid-range mapping must pick a state whose power is ≤ target + one
	// step (the enforcer never overshoots its budget by more than a step).
	for w := states[1].Watts; w < s.PeakW; w += 5 {
		st := r.StateForPower(0, w)
		if st.Watts > w+s.DynamicRangeW()/float64(s.DVFSLevels-1)+1e-9 {
			t.Errorf("StateForPower(%v) picked %v W", w, st.Watts)
		}
	}
}

// Property: StateForPower is monotone — more power never selects a
// lower-power state.
func TestQuickStateForPowerMonotone(t *testing.T) {
	var racks []*Rack
	for _, s := range Catalog() {
		r, err := NewRack(s.ID, Group{s, 1})
		if err != nil {
			t.Fatal(err)
		}
		racks = append(racks, r)
	}
	f := func(specIdx uint8, w1Raw, w2Raw uint16) bool {
		r := racks[int(specIdx)%len(racks)]
		w1, w2 := float64(w1Raw%500), float64(w2Raw%500)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		return r.StateForPower(0, w1).Watts <= r.StateForPower(0, w2).Watts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mustSpec(t *testing.T, id string) Spec {
	t.Helper()
	s, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRack(t *testing.T) {
	a := mustSpec(t, XeonE52620)
	b := mustSpec(t, CoreI54460)
	r, err := NewRack("comb1", Group{a, 5}, Group{b, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "comb1" || r.Servers() != 10 || r.NumGroups() != 2 {
		t.Errorf("rack = %q servers %d groups %d", r.Name(), r.Servers(), r.NumGroups())
	}
	wantPeak := 5*178.0 + 5*96.0
	if got := r.PeakW(); got != wantPeak {
		t.Errorf("PeakW = %v, want %v", got, wantPeak)
	}
}

func TestNewRackOrdering(t *testing.T) {
	// Group order at construction must not matter: sorted by spec ID.
	a := mustSpec(t, XeonE52620)
	b := mustSpec(t, CoreI54460)
	r1, err := NewRack("x", Group{a, 1}, Group{b, 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRack("x", Group{b, 1}, Group{a, 1})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := r1.Groups(), r2.Groups()
	for i := range g1 {
		if g1[i].Spec.ID != g2[i].Spec.ID {
			t.Fatalf("group order differs: %v vs %v", g1[i].Spec.ID, g2[i].Spec.ID)
		}
	}
}

func TestNewRackErrors(t *testing.T) {
	a := mustSpec(t, XeonE52620)
	b := mustSpec(t, XeonE52650)
	c := mustSpec(t, XeonE52603)
	d := mustSpec(t, CoreI54460)
	if _, err := NewRack("empty"); !errors.Is(err, ErrEmptyRack) {
		t.Errorf("err = %v, want ErrEmptyRack", err)
	}
	if _, err := NewRack("four", Group{a, 1}, Group{b, 1}, Group{c, 1}, Group{d, 1}); !errors.Is(err, ErrTooManyGroups) {
		t.Errorf("err = %v, want ErrTooManyGroups", err)
	}
	if _, err := NewRack("dup", Group{a, 1}, Group{a, 2}); err == nil {
		t.Error("duplicate specs should error")
	}
	if _, err := NewRack("zero", Group{a, 0}); err == nil {
		t.Error("zero count should error")
	}
	bad := a
	bad.IdleW = 0
	if _, err := NewRack("bad", Group{bad, 1}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("err = %v, want ErrBadSpec", err)
	}
}

func TestGroupsIsACopy(t *testing.T) {
	a := mustSpec(t, XeonE52620)
	r, err := NewRack("x", Group{a, 1})
	if err != nil {
		t.Fatal(err)
	}
	gs := r.Groups()
	gs[0].Count = 99
	if r.Groups()[0].Count != 1 {
		t.Error("Groups must return a copy")
	}
}

func TestClassString(t *testing.T) {
	if ClassCPU.String() != "cpu" || ClassGPU.String() != "gpu" {
		t.Error("Class.String mismatch")
	}
	if Class(7).String() != "Class(7)" {
		t.Errorf("unknown = %v", Class(7))
	}
}

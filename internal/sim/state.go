package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"greenhetero/internal/battery"
	"greenhetero/internal/core"
	"greenhetero/internal/server"
	"greenhetero/internal/trace"
)

// countingSource wraps the session's seeded RNG source and counts state
// advances. math/rand's internal state is not exportable, but its
// generator advances exactly one step per Int63 or Uint64 call, so the
// draw count alone reconstructs the stream position: restore = fresh
// source from the same seed, then discard that many draws. This is what
// makes a recovered session's noise stream — and therefore everything
// downstream of it — bit-identical to the uninterrupted run's.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	// rand.NewSource's concrete type has implemented Source64 since
	// Go 1.8; the assertion is load-bearing for the draw accounting.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source.
func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// maxRestoreDraws bounds the fast-forward loop in RestoreState: a
// corrupt or hand-edited draw count must not hang recovery. The bound
// replays in well under a minute yet covers ~10⁹ epochs of real
// operation.
const maxRestoreDraws = 1 << 36

// State is a session's complete durable state: everything NewSession
// does not derive from Config. The identity fields (Policy, Workload,
// Seed, and Rack and Trace from identify) fingerprint the snapshot so
// it cannot restore into a session built from a different scenario.
// All floats survive the JSON round-trip bit-exactly.
type State struct {
	Policy      string  `json:"policy"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Rack        string  `json:"rack"`
	Trace       string  `json:"trace"`
	Epoch       int     `json:"epoch"`
	PrevDemandW float64 `json:"prevDemandW"`
	RNGDraws    uint64  `json:"rngDraws"`
	// External marks a snapshot of a session driven on an external
	// battery store (Config.Bank): Battery is then zero/ignored — the
	// store's state belongs to its owner, the fleet coordinator.
	// Omitted when false, so pre-fleet snapshots decode unchanged.
	External   bool            `json:"external,omitempty"`
	Battery    battery.State   `json:"battery"`
	Controller core.State      `json:"controller"`
	DB         json.RawMessage `json:"db"`
}

// identify computes the fingerprints NewSession stores once per
// session: the rack as "name[e5-2620x5 …]" (spec ID and count per
// group), and the trace as a word-wise FNV-1a digest of its start, step
// and sample bits plus its length.
func identify(rack *server.Rack, tr *trace.Trace) (rackID, traceID string) {
	b := append([]byte(rack.Name()), '[')
	for i := 0; i < rack.NumGroups(); i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		g := rack.Group(i)
		b = append(append(b, g.Spec.ID...), 'x')
		b = strconv.AppendInt(b, int64(g.Count), 10)
	}
	b = append(b, ']')

	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(tr.Start.UnixNano())) * prime
	h = (h ^ uint64(tr.Step)) * prime
	for _, v := range tr.Values {
		h = (h ^ math.Float64bits(v)) * prime
	}
	return string(b), strconv.FormatUint(h, 16) + "/" + strconv.Itoa(len(tr.Values))
}

// ErrBadState is returned by RestoreState for snapshots that fail
// validation or belong to a different scenario.
var ErrBadState = errors.New("sim: bad state")

// ExportState snapshots the session between steps. Sessions driven on
// an external battery store (Config.Bank) export with External set and
// no battery section: the store's state belongs to its owner, the
// fleet coordinator, which checkpoints it separately.
func (s *Session) ExportState() (*State, error) {
	ctrlSt, err := s.ctrl.ExportState()
	if err != nil {
		return nil, fmt.Errorf("sim: export: %w", err)
	}
	var db bytes.Buffer
	if err := s.db.Save(&db); err != nil {
		return nil, fmt.Errorf("sim: export: %w", err)
	}
	st := &State{
		Policy:      s.Policy(),
		Workload:    s.WorkloadLabel(),
		Seed:        s.cfg.Seed,
		Rack:        s.rackID,
		Trace:       s.traceID,
		Epoch:       s.epoch,
		PrevDemandW: s.prevDemand,
		RNGDraws:    s.src.draws,
		Controller:  ctrlSt,
		DB:          db.Bytes(),
	}
	if s.bank == nil {
		st.External = true
	} else {
		st.Battery = s.bank.State()
	}
	return st, nil
}

// RestoreState applies a snapshot taken by ExportState on a session
// built from the same Config, leaving the session exactly where the
// exporting one stood — including the RNG stream position. Cheap
// validation happens up front, but restoration spans several owners
// (database, bank, controller, RNG), so on error the session must be
// discarded, not reused.
func (s *Session) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("%w: nil state", ErrBadState)
	}
	if st.Policy != s.Policy() || st.Workload != s.WorkloadLabel() || st.Seed != s.cfg.Seed ||
		st.Rack != s.rackID || st.Trace != s.traceID {
		return fmt.Errorf("%w: snapshot is for policy=%s workload=%s seed=%d rack=%s trace=%s, session is policy=%s workload=%s seed=%d rack=%s trace=%s",
			ErrBadState, st.Policy, st.Workload, st.Seed, st.Rack, st.Trace,
			s.Policy(), s.WorkloadLabel(), s.cfg.Seed, s.rackID, s.traceID)
	}
	if st.Epoch < 0 {
		return fmt.Errorf("%w: negative epoch %d", ErrBadState, st.Epoch)
	}
	if math.IsNaN(st.PrevDemandW) || math.IsInf(st.PrevDemandW, 0) || st.PrevDemandW < 0 {
		return fmt.Errorf("%w: previous demand %v W", ErrBadState, st.PrevDemandW)
	}
	if st.RNGDraws > maxRestoreDraws {
		return fmt.Errorf("%w: implausible RNG draw count %d", ErrBadState, st.RNGDraws)
	}
	if st.External != (s.bank == nil) {
		return fmt.Errorf("%w: snapshot external=%v but session external=%v (battery ownership mismatch)",
			ErrBadState, st.External, s.bank == nil)
	}
	if err := s.db.RestoreFrom(bytes.NewReader(st.DB)); err != nil {
		return fmt.Errorf("sim: restore database: %w", err)
	}
	if s.bank != nil {
		if err := s.bank.Restore(st.Battery); err != nil {
			return fmt.Errorf("sim: restore battery: %w", err)
		}
	}
	if err := s.ctrl.RestoreState(st.Controller); err != nil {
		return fmt.Errorf("sim: restore controller: %w", err)
	}
	// Rebuild the RNG at the recorded stream position. The prober
	// shares the session's RNG by construction, so it is re-pointed at
	// the same instance.
	src := newCountingSource(s.cfg.Seed)
	for i := uint64(0); i < st.RNGDraws; i++ {
		src.Uint64()
	}
	src.draws = st.RNGDraws
	rng := rand.New(src)
	s.src = src
	s.rng = rng
	s.pb.rng = rng
	s.epoch = st.Epoch
	s.prevDemand = st.PrevDemandW
	return nil
}

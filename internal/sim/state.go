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

// countingSource is the session's noise stream: math/rand's additive
// lagged-Fibonacci generator (a 607-word register with tap 273, seeded
// through the 48271 Lehmer LCG and math/rand's cooked XOR vector), kept
// in this package so that seeding is cheap and every state advance is
// counted. TestSourceMatchesMathRand pins it to rand.NewSource's output
// bit for bit. The generator advances exactly one step per Int63 or
// Uint64 call, so the draw count alone reconstructs the stream
// position: restore = fresh source from the same seed, then discard
// that many draws. This is what makes a recovered session's noise
// stream — and therefore everything downstream of it — bit-identical to
// the uninterrupted run's.
type countingSource struct {
	tap, feed int // register indices of the last draw's two terms
	vec       [rngLen]int64
	draws     uint64 // state advances since Seed
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// lcgMod is the seeding LCG's modulus 2³¹−1; each seeding draw is
	// 48271 times the last, mod lcgMod.
	lcgMod = 1<<31 - 1
	// seedSkip draws are discarded before the register is filled with
	// three draws per word.
	seedSkip = 20
)

// lcgPow[i] holds 48271^k mod 2³¹−1 for k = 21+3i, 22+3i, 23+3i: the
// seeding draws that fill register word i are then x·lcgPow[i][j] mod
// 2³¹−1 for start value x, independent multiplies instead of a serial
// chain of 1,841 steps.
var lcgPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < seedSkip; k++ {
		x = mulMod(x, 48271)
	}
	for i := range p {
		for j := range p[i] {
			x = mulMod(x, 48271)
			p[i][j] = x
		}
	}
	return p
}()

// rngCooked is math/rand's XOR vector for the seeded register (its
// rngCooked table), recovered from the standard source itself.
var rngCooked = recoverCooked(1)

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], by Mersenne
// reduction of the 62-bit product. The result is never 0 (the modulus
// is prime), so one conditional subtraction suffices.
func mulMod(a, b uint64) uint64 {
	t := a * b
	r := t&lcgMod + t>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// lcgStart maps a seed onto the seeding LCG's start value in
// [1, 2³¹−2], as math/rand does.
func lcgStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedRegister sets reg[i] to the seeding LCG's part of register word
// i for start value x — its three draws packed at bits 40, 20 and 0 —
// XORed with mask[i].
func seedRegister(reg *[rngLen]int64, x uint64, mask *[rngLen]int64) {
	for i := range reg {
		p := &lcgPow[i]
		reg[i] = int64(mulMod(x, p[0])<<40^mulMod(x, p[1])<<20^mulMod(x, p[2])) ^ mask[i]
	}
}

// recoverCooked returns math/rand's cooked XOR vector, read back from
// rand.NewSource(seed): after rngLen draws every register word has been
// overwritten once with the draw it produced, so the register is known;
// undoing the rngLen additions newest first gives the seeded register,
// and removing the seed's LCG words leaves the cooked vector. Any seed
// gives the same vector.
func recoverCooked(seed int64) (cooked [rngLen]int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var reg [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		reg[feed] = int64(src.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		reg[feed] -= reg[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	seedRegister(&cooked, lcgStart(seed), &reg)
	return cooked
}

func newCountingSource(seed int64) *countingSource {
	c := new(countingSource)
	c.Seed(seed)
	return c
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	return int64(c.Uint64() & rngMask)
}

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 {
	c.draws++
	c.tap--
	if c.tap < 0 {
		c.tap += rngLen
	}
	c.feed--
	if c.feed < 0 {
		c.feed += rngLen
	}
	x := c.vec[c.feed] + c.vec[c.tap]
	c.vec[c.feed] = x
	return uint64(x)
}

// Seed implements rand.Source.
func (c *countingSource) Seed(seed int64) {
	seedRegister(&c.vec, lcgStart(seed), &rngCooked)
	c.tap = 0
	c.feed = rngLen - rngTap
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
	rng := rand.New(src)
	s.src = src
	s.rng = rng
	s.pb.rng = rng
	s.epoch = st.Epoch
	s.prevDemand = st.PrevDemandW
	return nil
}

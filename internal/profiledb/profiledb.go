// Package profiledb implements the GreenHetero performance-power database
// (paper §IV-B.2, Fig. 7): for every (server configuration, workload)
// pair it holds profiled (power, performance) samples and a quadratic
// curve fit Perf = f(Power) used by the Solver as a performance
// projection.
//
// Entries are created by a training run (the first time a workload meets
// a configuration, Algorithm 1 lines 4–5) and refreshed each epoch with
// feedback samples, re-fitting the curve over new and old samples
// together (lines 7–10). The store is safe for concurrent use: the
// Monitor writes feedback while the Scheduler reads projections.
package profiledb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"greenhetero/internal/fit"
)

// Key identifies one (server configuration, workload) pair.
type Key struct {
	ServerID   string `json:"serverId"`
	WorkloadID string `json:"workloadId"`
}

// String implements fmt.Stringer.
func (k Key) String() string { return k.ServerID + "/" + k.WorkloadID }

// Entry is one database row: the retained samples and the current fit.
type Entry struct {
	// Key identifies the pair.
	Key Key `json:"key"`
	// IdleW and PeakEffW bound the projection's validity: below IdleW
	// the projection is 0, above PeakEffW it is constant (paper
	// §IV-B.3 clamping semantics).
	IdleW    float64 `json:"idleW"`
	PeakEffW float64 `json:"peakEffW"`
	// Samples are the retained (power, perf) observations, oldest first.
	Samples []fit.Sample `json:"samples"`
	// Curve is the current quadratic projection.
	Curve fit.Poly `json:"curve"`
	// Refits counts how many times the curve was reconstructed.
	Refits int `json:"refits"`

	// acc carries the entry's running normal-equation sums so the
	// per-epoch refit is incremental (O(new samples) instead of
	// O(window)) and allocation-free. It is built with the entry (by
	// AddTrainingRun or RestoreFrom), kept in sync with Samples from
	// then on, and never copied out of the store (copyEntry drops it):
	// fits from the sums are bit-identical to batch fits over the same
	// window, so its presence is invisible to every reader.
	acc *fit.Accumulator
}

// Predict evaluates the projection with the paper's clamping: zero below
// idle power, constant beyond the effective peak, floored at zero
// (a noisy fit must never project negative throughput).
//
// ghlint:allocfree
func (e *Entry) Predict(powerW float64) float64 {
	if powerW < e.IdleW {
		return 0
	}
	if powerW > e.PeakEffW {
		powerW = e.PeakEffW
	}
	v := e.Curve.Eval(powerW)
	if v < 0 {
		return 0
	}
	return v
}

// EnergyEfficiency is the projected throughput per watt at the effective
// peak, the ranking key of the GreenHetero-p policy.
//
// ghlint:allocfree
func (e *Entry) EnergyEfficiency() float64 {
	if e.PeakEffW <= 0 {
		return 0
	}
	return e.Predict(e.PeakEffW) / e.PeakEffW
}

var (
	// ErrNotFound is returned when a pair has no entry yet — the signal
	// to start a training run (Algorithm 1 line 3).
	ErrNotFound = errors.New("profiledb: entry not found")
	// ErrBadEntry is returned for invalid entry parameters.
	ErrBadEntry = errors.New("profiledb: bad entry")
	// ErrFit wraps curve-fitting failures.
	ErrFit = errors.New("profiledb: fit failed")
)

// maxSamples caps retained samples per entry (oldest evicted first): the
// cap keeps refits cheap and lets the projection track drift.
const maxSamples = 64

// DB is the thread-safe store.
type DB struct {
	mu sync.RWMutex
	// ghlint:guardedby mu
	entries map[Key]*Entry
}

// New creates an empty database.
func New() *DB {
	return &DB{entries: make(map[Key]*Entry)}
}

// Len reports the number of entries.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Lookup returns a copy of the entry for k, or ErrNotFound.
func (db *DB) Lookup(k Key) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.entries[k]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	return copyEntry(e), nil
}

// ProjectionsInto copies the entry for each keys[i] into out[i] without
// its retained samples — the fields the allocation policies and solver
// actually read (bounds, curve, refit count) — under one read lock,
// reusing each out entry's coefficient capacity: the controller calls
// it once per rack epoch with entries it owns, and a warm call performs
// no allocations. Use Lookup when the sample window is needed. out must
// hold at least len(keys) entries.
//
// It returns how many leading entries it filled. On a miss that count
// is the index of the first missing key, and the error is the bare
// ErrNotFound, unformatted, so probing an unprofiled pair allocates
// nothing either; callers that report the miss name the key
// themselves.
//
// ghlint:allocfree
func (db *DB) ProjectionsInto(keys []Key, out []Entry) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for i, k := range keys {
		e, ok := db.entries[k]
		if !ok {
			return i, ErrNotFound
		}
		// Field by field: building the whole Entry and copying it in
		// costs a quarter of a warm fetch.
		o := &out[i]
		o.Key, o.IdleW, o.PeakEffW, o.Samples, o.Refits, o.acc = e.Key, e.IdleW, e.PeakEffW, nil, e.Refits, nil
		o.Curve = fit.Poly{Coeffs: append(o.Curve.Coeffs[:0], e.Curve.Coeffs...), N: e.Curve.N}
	}
	return len(keys), nil
}

// AddTrainingRun creates (or replaces) the entry for k from a training
// run's samples, fitting the initial quadratic projection over all of
// them and retaining the newest maxSamples. The window is allocated at
// full capacity and the incremental sums are built here, so the
// feedback that later fills the window allocates nothing.
func (db *DB) AddTrainingRun(k Key, idleW, peakEffW float64, samples []fit.Sample) error {
	if k.ServerID == "" || k.WorkloadID == "" {
		return fmt.Errorf("%w: empty key", ErrBadEntry)
	}
	if idleW <= 0 || peakEffW <= idleW {
		return fmt.Errorf("%w: power range idle %v peakEff %v", ErrBadEntry, idleW, peakEffW)
	}
	curve, err := fitCurve(samples)
	if err != nil {
		return fmt.Errorf("training run %s: %w", k, err)
	}
	window := samples[max(0, len(samples)-maxSamples):]
	e := &Entry{
		Key:      k,
		IdleW:    idleW,
		PeakEffW: peakEffW,
		Samples:  append(make([]fit.Sample, 0, maxSamples), window...),
		Curve:    curve,
		acc:      new(fit.Accumulator),
	}
	e.acc.ReplaceWindow(e.Samples)

	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries[k] = e
	return nil
}

// AddFeedback appends runtime feedback samples and reconstructs the
// projection over old and new samples together (Algorithm 1 lines 8–10).
//
// ghlint:allocfree
func (db *DB) AddFeedback(k Key, samples ...fit.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	// Evict before appending, in place. The retained window is the tail
	// of (old ++ incoming), which is exactly what append-then-trim kept,
	// without reallocating the sample slice every epoch.
	incoming := samples
	over := len(e.Samples) + len(incoming) - maxSamples
	if over > 0 {
		if over >= len(e.Samples) {
			incoming = incoming[over-len(e.Samples):]
			e.Samples = e.Samples[:0]
		} else {
			n := copy(e.Samples, e.Samples[over:])
			e.Samples = e.Samples[:n]
		}
	}
	e.Samples = append(e.Samples, incoming...)
	// A feedback draw beyond the believed effective peak means the
	// workload's demand grew (e.g. load intensity rose since the
	// training run): widen the projection's validity range. The range
	// never shrinks — under power scarcity the rack only observes
	// throttled draws, which say nothing about true demand.
	for _, s := range samples {
		if s.X > e.PeakEffW {
			e.PeakEffW = s.X
		}
	}
	// Keep the incremental sums in step with the window. Appends fold in
	// O(1) per sample; evictions re-accumulate (the only way to
	// stay bit-identical to a batch fit — see fit.Accumulator).
	if over > 0 {
		e.acc.ReplaceWindow(e.Samples)
	} else {
		for _, s := range incoming {
			e.acc.Append(s)
		}
	}
	curve, err := refitEntry(e)
	if err != nil {
		// Degenerate feedback (e.g. repeated identical power points
		// after eviction) must not corrupt the existing projection.
		return fmt.Errorf("refit %s: %w", k, err)
	}
	// The accumulator's coefficient buffer is reused two fits later;
	// copy into the entry-owned slice (reusing its capacity) so the
	// stored curve survives future refits.
	curve.Coeffs = append(e.Curve.Coeffs[:0], curve.Coeffs...)
	e.Curve = curve
	e.Refits++
	return nil
}

// fitCurve fits the quadratic projection, falling back to linear when
// only three or fewer distinct samples exist.
func fitCurve(samples []fit.Sample) (fit.Poly, error) {
	if len(samples) >= 4 {
		if p, err := fit.Quadratic(samples); err == nil {
			return p, nil
		}
	}
	p, err := fit.Linear(samples)
	if err != nil {
		return fit.Poly{}, fmt.Errorf("%w: %v", ErrFit, err)
	}
	return p, nil
}

// refitEntry is fitCurve on the entry's incremental sums: the same
// quadratic-then-linear ladder with the same error wrapping, fed from
// the accumulator instead of re-walking the window. Bit-identical to
// fitCurve(e.Samples) by the accumulator's equivalence contract.
//
// ghlint:allocfree
func refitEntry(e *Entry) (fit.Poly, error) {
	if len(e.Samples) >= 4 {
		if p, err := e.acc.Fit(2); err == nil {
			return p, nil
		}
	}
	p, err := e.acc.Fit(1)
	if err != nil {
		return fit.Poly{}, fmt.Errorf("%w: %v", ErrFit, err)
	}
	return p, nil
}

func copyEntry(e *Entry) Entry {
	out := *e
	out.Samples = append([]fit.Sample(nil), e.Samples...)
	out.Curve.Coeffs = append([]float64(nil), e.Curve.Coeffs...)
	out.acc = nil
	return out
}

// snapshot is the JSON wire form of the database.
type snapshot struct {
	MaxSamples int     `json:"maxSamples"`
	Entries    []Entry `json:"entries"`
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	snap := snapshot{MaxSamples: maxSamples, Entries: make([]Entry, 0, len(db.entries))}
	for _, k := range db.keysLocked() {
		snap.Entries = append(snap.Entries, copyEntry(db.entries[k]))
	}
	db.mu.RUnlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("profiledb: save: %w", err)
	}
	return nil
}

// keysLocked returns sorted keys; caller must hold at least RLock.
//
// ghlint:holds db.mu read
func (db *DB) keysLocked() []Key {
	keys := make([]Key, 0, len(db.entries))
	for k := range db.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ServerID != keys[j].ServerID {
			return keys[i].ServerID < keys[j].ServerID
		}
		return keys[i].WorkloadID < keys[j].WorkloadID
	})
	return keys
}

// validate checks a decoded snapshot before any of it is installed:
// positive maxSamples, unique non-empty keys, and finite power bounds,
// sample coordinates, and curve coefficients. Snapshots come from Save
// but also from hand-edited files and crash recovery, so nothing is
// trusted.
func (sn *snapshot) validate() error {
	if sn.MaxSamples <= 0 {
		return fmt.Errorf("%w: non-positive maxSamples %d", ErrBadEntry, sn.MaxSamples)
	}
	seen := make(map[Key]bool, len(sn.Entries))
	for i := range sn.Entries {
		e := &sn.Entries[i]
		if e.Key.ServerID == "" || e.Key.WorkloadID == "" {
			return fmt.Errorf("%w: entry %d has empty key", ErrBadEntry, i)
		}
		if seen[e.Key] {
			return fmt.Errorf("%w: duplicate key %s", ErrBadEntry, e.Key)
		}
		seen[e.Key] = true
		for _, f := range []struct {
			name string
			v    float64
		}{{"idleW", e.IdleW}, {"peakEffW", e.PeakEffW}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return fmt.Errorf("%w: %s: non-finite %s", ErrBadEntry, e.Key, f.name)
			}
		}
		if e.IdleW <= 0 || e.PeakEffW <= e.IdleW {
			return fmt.Errorf("%w: %s: power range idle %v peakEff %v", ErrBadEntry, e.Key, e.IdleW, e.PeakEffW)
		}
		if e.Refits < 0 {
			return fmt.Errorf("%w: %s: negative refits %d", ErrBadEntry, e.Key, e.Refits)
		}
		for j, s := range e.Samples {
			if math.IsNaN(s.X) || math.IsInf(s.X, 0) || math.IsNaN(s.Y) || math.IsInf(s.Y, 0) {
				return fmt.Errorf("%w: %s: non-finite sample %d (%v, %v)", ErrBadEntry, e.Key, j, s.X, s.Y)
			}
		}
		for j, c := range e.Curve.Coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("%w: %s: non-finite curve coefficient %d (%v)", ErrBadEntry, e.Key, j, c)
			}
		}
	}
	return nil
}

// decodeSnapshot reads and validates a snapshot from r.
func decodeSnapshot(r io.Reader) (snapshot, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("profiledb: load: %w", err)
	}
	if err := snap.validate(); err != nil {
		return snapshot{}, err
	}
	return snap, nil
}

// RestoreFrom replaces the database's entries from a snapshot written
// by Save — crash recovery into a DB already shared with a controller.
// The snapshot is fully validated first, so on error the DB is
// untouched. The snapshot's maxSamples must equal the package's cap: a
// mismatch means the snapshot was written by a build with another
// window, whose entries this one would trim differently. Restored
// windows are kept as saved, never trimmed, so a restored database
// saves the same bytes; each gets room for maxSamples samples and its
// incremental sums, as a trained entry does.
func (db *DB) RestoreFrom(r io.Reader) error {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return err
	}
	if snap.MaxSamples != maxSamples {
		return fmt.Errorf("%w: snapshot maxSamples %d, database %d", ErrBadEntry, snap.MaxSamples, maxSamples)
	}
	entries := make(map[Key]*Entry, len(snap.Entries))
	for i := range snap.Entries {
		e := &snap.Entries[i]
		if room := maxSamples - len(e.Samples); room > 0 {
			e.Samples = slices.Grow(e.Samples, room)
		}
		e.acc = new(fit.Accumulator)
		e.acc.ReplaceWindow(e.Samples)
		entries[e.Key] = e
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries = entries
	return nil
}

package wal

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// File-name scheme inside the state dir. Segments are named by the
// sequence number of their first record; snapshots by the session epoch
// they capture. Temporaries never survive an Open.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
	tmpSnap    = "tmp-snap"
	tmpPrefix  = "tmp-"
)

// TypeSnapshot frames a snapshot file's single record. Log records use
// caller-defined types below 0xff.
const TypeSnapshot byte = 0xff

// Recovered is what Open salvaged from the state dir.
type Recovered struct {
	// SnapshotEpoch is the epoch of the newest valid snapshot, -1 when
	// none exists.
	SnapshotEpoch int
	// Snapshot is that snapshot's payload (nil when none).
	Snapshot []byte
	// Records is the verified log tail beyond the snapshot, in order.
	Records []Record
	// Truncated reports whether a torn or corrupt tail was cut off.
	Truncated bool
}

// Store is the segmented write-ahead log plus snapshot manager. A
// segment runs from an Open or a snapshot to the next snapshot, so a
// chain of segments forms only across reopens. One writer at a time;
// Append and SaveSnapshot are fully synchronous — when they return nil
// the bytes are durable.
type Store struct {
	fs   FS
	logf func(string, ...any)

	mu sync.Mutex
	// ghlint:guardedby mu
	cur File
	// ghlint:guardedby mu
	segNames []string
	// ghlint:guardedby mu
	nextSeq uint64
	// ghlint:guardedby mu
	lastSnapEpoch int
	// ghlint:guardedby mu
	closed bool
}

// Open recovers the state dir and returns a store ready to append.
// Damage never fails an Open: a torn or corrupt tail is truncated (and
// the damaged segment physically repaired so the bad bytes cannot
// resurface), invalid snapshots are skipped, and leftover temporaries
// are deleted — each with a warning through logf (nil discards them).
// Open fails only on real I/O errors.
func Open(fsys FS, logf func(format string, args ...any)) (*Store, Recovered, error) {
	if fsys == nil {
		return nil, Recovered{}, errors.New("wal: nil fs")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{
		fs:            fsys,
		logf:          logf,
		nextSeq:       1,
		lastSnapEpoch: -1,
	}
	rec, err := s.recover()
	if err != nil {
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// segName / snapName build the canonical file names.
func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix) }
func snapName(epoch int) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(epoch), snapSuffix)
}

// parseHex extracts the 16-hex-digit payload of name between prefix and
// suffix.
func parseHex(name, prefix, suffix string) (uint64, bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(body) != 16 {
		return 0, false
	}
	var v uint64
	for _, c := range body {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// recover scans the state dir: delete temporaries, pick the newest
// valid snapshot, replay the segment chain, truncate at the first
// damage.
func (s *Store) recover() (Recovered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	names, err := s.fs.List()
	if err != nil {
		return Recovered{}, err
	}
	var segs, snaps, tmps []string
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			segs = append(segs, name)
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			snaps = append(snaps, name)
		default:
			s.logf("wal: ignoring unrecognized file %s", name)
		}
	}

	// A temporary is an interrupted snapshot write that never reached
	// its rename: garbage by definition.
	for _, t := range tmps {
		s.logf("wal: removing leftover temporary %s", t)
		if err := s.fs.Remove(t); err != nil {
			return Recovered{}, err
		}
	}

	rec := Recovered{SnapshotEpoch: -1}
	var snapLastSeq uint64

	// Newest valid snapshot wins; invalid ones are skipped with a
	// warning (an older intact snapshot is strictly better than a
	// refusal to start).
	sort.Slice(snaps, func(i, j int) bool {
		ei, _ := parseHex(snaps[i], snapPrefix, snapSuffix)
		ej, _ := parseHex(snaps[j], snapPrefix, snapSuffix)
		return ei > ej
	})
	for _, name := range snaps {
		epoch, ok := parseHex(name, snapPrefix, snapSuffix)
		if !ok {
			s.logf("wal: ignoring snapshot with malformed name %s", name)
			continue
		}
		b, err := s.fs.ReadFile(name)
		if err != nil {
			return Recovered{}, err
		}
		frames, _, dmg := decodeFrames(b)
		if dmg != nil || len(frames) != 1 || frames[0].Type != TypeSnapshot {
			reason := "not a single snapshot frame"
			if dmg != nil {
				reason = dmg.Reason
			}
			s.logf("wal: ignoring invalid snapshot %s: %s", name, reason)
			continue
		}
		rec.SnapshotEpoch = int(epoch)
		rec.Snapshot = frames[0].Data
		snapLastSeq = frames[0].Seq
		break
	}

	// Replay the segment chain in first-seq order, truncating at the
	// first damaged or discontinuous frame.
	sort.Slice(segs, func(i, j int) bool {
		si, _ := parseHex(segs[i], segPrefix, segSuffix)
		sj, _ := parseHex(segs[j], segPrefix, segSuffix)
		return si < sj
	})
	var records []Record
	live := segs[:0]
	damaged := false
	for _, name := range segs {
		if damaged {
			// Everything after the damage point is unreachable: its
			// sequence numbers will be reissued.
			s.logf("wal: dropping unreachable segment %s", name)
			if err := s.fs.Remove(name); err != nil {
				return Recovered{}, err
			}
			continue
		}
		b, err := s.fs.ReadFile(name)
		if err != nil {
			return Recovered{}, err
		}
		frames, consumed, dmg := decodeFrames(b)
		if dmg == nil && len(frames) == 0 {
			// An empty segment is a crash between segment creation and
			// its first record. Its name (= the next sequence number)
			// will be reissued, so drop the file rather than track it.
			s.logf("wal: removing empty segment %s", name)
			if err := s.fs.Remove(name); err != nil {
				return Recovered{}, err
			}
			continue
		}
		if dmg == nil && len(frames) > 0 && len(records) > 0 && frames[0].Seq != records[len(records)-1].Seq+1 {
			dmg = &Damage{Reason: fmt.Sprintf("segment starts at seq %d, want %d", frames[0].Seq, records[len(records)-1].Seq+1)}
			frames, consumed = nil, 0
		}
		records = append(records, frames...)
		if dmg == nil {
			live = append(live, name)
			continue
		}
		damaged = true
		rec.Truncated = true
		s.logf("wal: truncating log at %s offset %d (%s); %d records survive before the cut",
			name, dmg.Offset, dmg.Reason, len(records))
		// Physically repair the segment so the bad bytes can never be
		// replayed: rewrite the clean prefix via temp+rename, or drop
		// the file when nothing survives.
		if err := s.repairSegmentLocked(name, b[:consumed]); err != nil {
			return Recovered{}, err
		}
		if consumed > 0 {
			live = append(live, name)
		}
	}
	segs = live

	// Cut the log at the snapshot watermark.
	if rec.SnapshotEpoch >= 0 {
		idx := sort.Search(len(records), func(i int) bool { return records[i].Seq > snapLastSeq })
		kept := records[idx:]
		if len(kept) > 0 && kept[0].Seq != snapLastSeq+1 {
			s.logf("wal: log resumes at seq %d but snapshot covers through %d; discarding unreachable tail", kept[0].Seq, snapLastSeq)
			kept = nil
			rec.Truncated = true
			segs, err = s.removeAllLocked(segs)
			if err != nil {
				return Recovered{}, err
			}
		}
		records = kept
		s.nextSeq = snapLastSeq + 1
	} else if len(records) > 0 && records[0].Seq != 1 {
		s.logf("wal: log starts at seq %d with no snapshot; discarding", records[0].Seq)
		records = nil
		rec.Truncated = true
		segs, err = s.removeAllLocked(segs)
		if err != nil {
			return Recovered{}, err
		}
	}
	if len(records) > 0 {
		s.nextSeq = records[len(records)-1].Seq + 1
	}

	if err := s.fs.SyncDir(); err != nil {
		return Recovered{}, err
	}
	s.segNames = append([]string(nil), segs...)
	s.lastSnapEpoch = rec.SnapshotEpoch
	rec.Records = records
	return rec, nil
}

// repairSegmentLocked rewrites a damaged segment's clean prefix
// atomically (temp → sync → rename), or removes the file when the
// prefix is empty.
//
// ghlint:holds s.mu
func (s *Store) repairSegmentLocked(name string, good []byte) error {
	if len(good) == 0 {
		return s.fs.Remove(name)
	}
	tmp := tmpPrefix + name
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(good); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmp, name)
}

// removeAllLocked deletes the given segment files, returning the empty
// live list.
//
// ghlint:holds s.mu
func (s *Store) removeAllLocked(segs []string) ([]string, error) {
	for _, name := range segs {
		s.logf("wal: dropping unreachable segment %s", name)
		if err := s.fs.Remove(name); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Append journals one record and fsyncs it; on nil return the record is
// durable. Errors are fatal to the store's usefulness — the caller must
// treat them as a stop-the-world condition, not retry.
func (s *Store) Append(typ byte, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: store closed")
	}
	if typ == TypeSnapshot {
		return errors.New("wal: record type reserved for snapshots")
	}
	if s.cur == nil {
		name := segName(s.nextSeq)
		f, err := s.fs.Create(name)
		if err != nil {
			return fmt.Errorf("wal: create segment: %w", err)
		}
		// The segment's directory entry must be durable before any
		// record in it counts as committed.
		if err := s.fs.SyncDir(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: sync dir after segment create: %w", err)
		}
		s.cur = f
		s.segNames = append(s.segNames, name)
	}
	frame, err := appendFrame(nil, Record{Seq: s.nextSeq, Type: typ, Data: data})
	if err != nil {
		return err
	}
	if _, err := s.cur.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	s.nextSeq++
	return nil
}

// SaveSnapshot atomically persists a full-state snapshot covering every
// record appended so far (write-temp → fsync → rename → fsync-dir) and
// then prunes the log: all segments and older snapshots become
// redundant and are deleted. A crash anywhere in the sequence leaves
// either the old snapshot+log or the new snapshot governing recovery,
// and the return value says which: nil once the new snapshot is
// durable, even if pruning then fails (a logged warning; the next Open
// or snapshot clears the leftovers).
func (s *Store) SaveSnapshot(epoch int, state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: store closed")
	}
	if epoch < 0 {
		return fmt.Errorf("wal: snapshot epoch %d", epoch)
	}
	// Seal the open segment: every live record must be on disk under a
	// closed file before the snapshot that supersedes it exists.
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		if err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	frame, err := appendFrame(nil, Record{Seq: s.nextSeq - 1, Type: TypeSnapshot, Data: state})
	if err != nil {
		return err
	}
	f, err := s.fs.Create(tmpSnap)
	if err != nil {
		return fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	name := snapName(epoch)
	if err := s.fs.Rename(tmpSnap, name); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := s.fs.SyncDir(); err != nil {
		return fmt.Errorf("wal: sync dir after snapshot: %w", err)
	}
	s.lastSnapEpoch = epoch
	if err := s.pruneLocked(name); err != nil {
		s.logf("wal: pruning behind snapshot %s: %v", name, err)
	}
	return nil
}

// pruneLocked deletes every segment and every snapshot but keep: the
// new snapshot covers the whole log, so they are dead weight. Deleting
// them is not a correctness point — a crash mid-prune just leaves files
// the next Open discards.
//
// ghlint:holds s.mu
func (s *Store) pruneLocked(keep string) error {
	for i, seg := range s.segNames {
		if err := s.fs.Remove(seg); err != nil {
			s.segNames = s.segNames[i:]
			return err
		}
	}
	s.segNames = nil
	names, err := s.fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if n != keep && strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			if err := s.fs.Remove(n); err != nil {
				return err
			}
		}
	}
	return s.fs.SyncDir()
}

// Segments reports how many live segment files the log currently spans.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segNames)
}

// LastSnapshotEpoch reports the epoch of the newest snapshot, -1 when
// none has been written or recovered.
func (s *Store) LastSnapshotEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnapEpoch
}

// Close seals the open segment. The store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}

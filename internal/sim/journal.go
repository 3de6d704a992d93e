package sim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"greenhetero/internal/wal"
)

// journalSchema versions the journal's one entry format. Schema 1 was
// the retired replay protocol (intent and epoch records re-executed on
// recovery); a state dir it wrote is refused, never decoded as state.
const journalSchema = 2

// Frame types: every log record is recState and a snapshot file holds
// one typeSnapshot frame. Types 1 and 2 were the replay protocol's
// intent and epoch records.
const (
	recState     byte = 3
	typeSnapshot byte = 0xff
)

// Frame layout constants; see Journal.
const (
	frameHeaderLen  = 8
	payloadFixedLen = 9
	// maxRecordBytes bounds a frame's payload; lengths beyond it are
	// treated as corruption, not allocation requests.
	maxRecordBytes = 16 << 20
)

// File names inside the state dir; see Journal.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".db"
	tmpSnap    = "tmp-snap"
	tmpPrefix  = "tmp-"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// journalEntry is written by every commit, log record and snapshot
// alike: the session's full state plus the caller's optional payload.
type journalEntry struct {
	Schema int    `json:"schema"`
	State  *State `json:"state"`
	Data   any    `json:"data,omitempty"`
}

// rawEntry decodes a journalEntry, deferring the state so only the
// newest one is ever parsed.
type rawEntry struct {
	Schema int             `json:"schema"`
	State  json.RawMessage `json:"state"`
	Data   json.RawMessage `json:"data"`
}

// Journal is the one durability protocol for a Session, and the one
// owner of the state dir's format:
//
//   - every commit writes the session's full State;
//   - the journal's first commit, and every snapshotEvery-th after it,
//     is an atomic snapshot that compacts the log;
//   - recovery hands back the newest durable state and never
//     re-executes an epoch.
//
// Callers may attach a payload to each commit (the daemon's epoch
// result on log records, its history ring on snapshots); OpenJournal
// and Reopen return the payloads that survived, so the caller can
// rebuild its own view alongside the restored session.
//
// Every entry is a JSON journalEntry in a CRC32C frame, little-endian:
//
//	[4B payload length][4B CRC32C(payload)][payload]
//	payload = [8B seq][1B type][entry]
//
// The CRC covers the whole payload, so a bit-flip anywhere is detected
// and a torn write shows up as a short frame. Sequence numbers are
// consecutive across files, which turns a lost segment or a stale file
// into a detectable gap rather than silent divergence.
//
// The state dir holds three kinds of file:
//
//   - wal-<first seq>.log, a log segment of recState frames. A segment
//     runs from an open or a snapshot to the next snapshot, so a chain
//     of segments forms only across reopens.
//   - snap-<epoch>.db, a snapshot: one typeSnapshot frame whose seq is
//     the last log record it covers. It is written as tmp-snap, synced,
//     renamed and the dir synced, then the log and older snapshots
//     behind it are deleted. A crash at any instant leaves either the
//     old state or the new one governing recovery.
//   - tmp-*, an interrupted snapshot write or segment repair, deleted on
//     open.
//
// Both numbers are 16 lowercase hex digits. Recovery never refuses over
// damage: a torn or corrupt tail is cut off (the dropped records were
// never durably committed) and the damaged segment rewritten, an
// invalid snapshot falls back to an older one, each with a warning.
// It refuses only entries this protocol did not write.
//
// Commit, Checkpoint, Reopen and Close must not run concurrently;
// Segments and LastSnapshotEpoch may run concurrently with any of them.
type Journal struct {
	fs    wal.FS
	every int
	logf  func(string, ...any)
	// n counts commits since the last snapshot, modulo every; zero
	// means the next commit is a snapshot.
	n int

	mu sync.Mutex
	// cur is the open segment, nil until the first log record after an
	// open or a snapshot.
	// ghlint:guardedby mu
	cur wal.File
	// ghlint:guardedby mu
	segNames []string
	// ghlint:guardedby mu
	nextSeq uint64
	// ghlint:guardedby mu
	lastSnapEpoch int
	// closed is set by Close and by a failed write or Reopen; only a
	// Reopen that succeeds clears it.
	// ghlint:guardedby mu
	closed bool
}

// JournalRecovery is what OpenJournal or Reopen salvaged.
type JournalRecovery struct {
	// State is the newest durable state, nil when the store held none.
	State *State
	// Snapshot is the payload of the newest surviving snapshot.
	Snapshot json.RawMessage
	// Tail holds the payloads of the log records committed after that
	// snapshot, oldest first.
	Tail []json.RawMessage
}

// OpenJournal opens (or creates) the state dir on fsys with a snapshot
// every snapshotEvery commits. logf receives the recovery warnings; nil
// discards them.
func OpenJournal(fsys wal.FS, snapshotEvery int, logf func(string, ...any)) (*Journal, JournalRecovery, error) {
	if snapshotEvery < 1 {
		return nil, JournalRecovery{}, fmt.Errorf("sim: journal snapshot cadence %d", snapshotEvery)
	}
	if fsys == nil {
		return nil, JournalRecovery{}, errors.New("sim: journal: nil fs")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	j := &Journal{fs: fsys, every: snapshotEvery, logf: logf}
	rec, err := j.Reopen()
	if err != nil {
		return nil, JournalRecovery{}, err
	}
	return j, rec, nil
}

// Reopen salvages the state dir after a failed commit (or a simulated
// reboot) and returns what survived. The snapshot cadence carries on
// where it was. A refused Reopen leaves the journal closed.
func (j *Journal) Reopen() (JournalRecovery, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.closeLocked()
	return j.recoverLocked()
}

// recoverLocked scans the state dir: delete temporaries, pick the
// newest valid snapshot, replay the segment chain, cut it at the first
// damage and at the snapshot's watermark. Only then are the entries
// decoded, so a dir that is refused has had the same repairs as one
// that is not. The journal takes on the recovered log, and opens, only
// when the decode succeeds.
//
// ghlint:holds j.mu
func (j *Journal) recoverLocked() (JournalRecovery, error) {
	names, err := j.fs.List()
	if err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
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
			j.logf("wal: ignoring unrecognized file %s", name)
		}
	}
	// A temporary is an interrupted snapshot write or repair that never
	// reached its rename: garbage by definition.
	for _, name := range tmps {
		j.logf("wal: removing leftover temporary %s", name)
		if err := j.fs.Remove(name); err != nil {
			return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
		}
	}

	snapEpoch, snap, err := j.newestSnapshot(snaps)
	if err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
	}
	frames, segs, err := j.replaySegments(segs)
	if err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
	}

	// Cut the log at the snapshot's watermark. A log that does not
	// continue from it (or from seq 1 without a snapshot) is unreachable.
	nextSeq, unreachable := uint64(1), false
	if snapEpoch >= 0 {
		idx := sort.Search(len(frames), func(i int) bool { return frames[i].seq > snap.seq })
		frames = frames[idx:]
		nextSeq = snap.seq + 1
		if len(frames) > 0 && frames[0].seq != nextSeq {
			j.logf("wal: log resumes at seq %d but snapshot covers through %d; discarding unreachable tail", frames[0].seq, snap.seq)
			unreachable = true
		}
	} else if len(frames) > 0 && frames[0].seq != 1 {
		j.logf("wal: log starts at seq %d with no snapshot; discarding", frames[0].seq)
		unreachable = true
	}
	if unreachable {
		frames = nil
		for _, name := range segs {
			j.logf("wal: dropping unreachable segment %s", name)
			if err := j.fs.Remove(name); err != nil {
				return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
			}
		}
		segs = nil
	}
	if len(frames) > 0 {
		nextSeq = frames[len(frames)-1].seq + 1
	}
	if err := j.fs.SyncDir(); err != nil {
		return JournalRecovery{}, fmt.Errorf("sim: journal: %w", err)
	}

	// Decode: the snapshot first, then the tail; the last state in
	// commit order wins.
	var out JournalRecovery
	var raw json.RawMessage
	if len(snap.data) > 0 {
		e, err := decodeEntry(snap.data)
		if err != nil {
			return JournalRecovery{}, fmt.Errorf("sim: journal snapshot (epoch %d): %w", snapEpoch, err)
		}
		raw, out.Snapshot = e.State, e.Data
	}
	for _, f := range frames {
		if f.typ != recState {
			return JournalRecovery{}, fmt.Errorf("sim: journal record seq %d: %w: type %d is not a state record (types 1 and 2 are the retired replay protocol's intent and epoch records)",
				f.seq, ErrBadState, f.typ)
		}
		e, err := decodeEntry(f.data)
		if err != nil {
			return JournalRecovery{}, fmt.Errorf("sim: journal record seq %d: %w", f.seq, err)
		}
		raw = e.State
		out.Tail = append(out.Tail, e.Data)
	}
	if raw != nil {
		out.State = new(State)
		if err := json.Unmarshal(raw, out.State); err != nil {
			return JournalRecovery{}, fmt.Errorf("sim: journal: %w: decode state: %v", ErrBadState, err)
		}
	}
	j.segNames, j.nextSeq, j.lastSnapEpoch, j.closed = segs, nextSeq, snapEpoch, false
	return out, nil
}

// newestSnapshot returns the newest valid snapshot's epoch and frame,
// or epoch -1 when there is none. Invalid ones are skipped with a
// warning: an older intact snapshot is strictly better than a refusal
// to start.
func (j *Journal) newestSnapshot(snaps []string) (int, frame, error) {
	sort.Slice(snaps, func(a, b int) bool {
		ea, _ := parseHex(snaps[a], snapPrefix, snapSuffix)
		eb, _ := parseHex(snaps[b], snapPrefix, snapSuffix)
		return ea > eb
	})
	for _, name := range snaps {
		epoch, ok := parseHex(name, snapPrefix, snapSuffix)
		if !ok {
			j.logf("wal: ignoring snapshot with malformed name %s", name)
			continue
		}
		b, err := j.fs.ReadFile(name)
		if err != nil {
			return -1, frame{}, err
		}
		frames, _, damage := decodeFrames(b)
		if damage == "" && (len(frames) != 1 || frames[0].typ != typeSnapshot) {
			damage = "not a single snapshot frame"
		}
		if damage != "" {
			j.logf("wal: ignoring invalid snapshot %s: %s", name, damage)
			continue
		}
		return int(epoch), frames[0], nil
	}
	return -1, frame{}, nil
}

// replaySegments reads the segment chain in first-seq order and returns
// its frames and the segments still live. At the first damaged or
// discontinuous frame it cuts the log: the damaged segment is rewritten
// to its clean prefix (or removed when none), so the bad bytes cannot
// resurface, and every later segment is removed, its sequence numbers
// to be reissued.
func (j *Journal) replaySegments(segs []string) ([]frame, []string, error) {
	sort.Slice(segs, func(a, b int) bool {
		sa, _ := parseHex(segs[a], segPrefix, segSuffix)
		sb, _ := parseHex(segs[b], segPrefix, segSuffix)
		return sa < sb
	})
	var frames []frame
	live := segs[:0]
	damaged := false
	for _, name := range segs {
		if damaged {
			j.logf("wal: dropping unreachable segment %s", name)
			if err := j.fs.Remove(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		b, err := j.fs.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		got, consumed, damage := decodeFrames(b)
		switch {
		case damage == "" && len(got) == 0:
			// A crash between segment creation and its first record.
			// Its name (the next sequence number) will be reissued.
			j.logf("wal: removing empty segment %s", name)
			if err := j.fs.Remove(name); err != nil {
				return nil, nil, err
			}
			continue
		case damage == "" && len(frames) > 0 && got[0].seq != frames[len(frames)-1].seq+1:
			damage = fmt.Sprintf("segment starts at seq %d, want %d", got[0].seq, frames[len(frames)-1].seq+1)
			got, consumed = nil, 0
		}
		frames = append(frames, got...)
		if damage == "" {
			live = append(live, name)
			continue
		}
		damaged = true
		j.logf("wal: truncating log at %s offset %d (%s); %d records survive before the cut",
			name, consumed, damage, len(frames))
		if err := j.repairSegment(name, b[:consumed]); err != nil {
			return nil, nil, err
		}
		if consumed > 0 {
			live = append(live, name)
		}
	}
	return frames, live, nil
}

// repairSegment rewrites a damaged segment's clean prefix atomically
// (temp, sync, rename), or removes the file when the prefix is empty.
func (j *Journal) repairSegment(name string, good []byte) error {
	if len(good) == 0 {
		return j.fs.Remove(name)
	}
	return j.writeFile(tmpPrefix+name, name, good)
}

// writeFile writes b to tmp, syncs and closes it, and renames it to
// name. The rename is durable only after the next SyncDir.
func (j *Journal) writeFile(tmp, name string, b []byte) error {
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := j.fs.Rename(tmp, name); err != nil {
		return fmt.Errorf("publish %s: %w", name, err)
	}
	return nil
}

// decodeEntry parses one entry and checks its schema before anything
// else is trusted.
func decodeEntry(b []byte) (rawEntry, error) {
	var e rawEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	switch {
	case e.Schema == 1:
		return e, fmt.Errorf("%w: schema 1 is the retired replay protocol's format, which this build no longer reads; start from an empty state dir", ErrBadState)
	case e.Schema != journalSchema:
		return e, fmt.Errorf("%w: schema %d, want %d", ErrBadState, e.Schema, journalSchema)
	case e.State == nil:
		return e, fmt.Errorf("%w: entry has no state", ErrBadState)
	}
	return e, nil
}

// Commit makes s's current state durable, as a snapshot when the
// cadence says so and as a log record otherwise. rec is the log
// record's payload; snap, called only for a snapshot, supplies its
// payload. Either may be nil. A failed commit closes the journal: every
// later commit fails until Reopen.
func (j *Journal) Commit(s *Session, rec any, snap func() any) error {
	snapshot := j.n == 0
	j.n = (j.n + 1) % j.every
	if !snapshot {
		return j.commit(s, false, rec)
	}
	var data any
	if snap != nil {
		data = snap()
	}
	return j.commit(s, true, data)
}

// Checkpoint commits s's state as a snapshot now and restarts the
// cadence from it.
func (j *Journal) Checkpoint(s *Session, data any) error {
	j.n = 1 % j.every
	return j.commit(s, true, data)
}

func (j *Journal) commit(s *Session, snapshot bool, data any) error {
	st, err := s.ExportState()
	if err != nil {
		return err
	}
	b, err := json.Marshal(journalEntry{Schema: journalSchema, State: st, Data: data})
	if err != nil {
		return fmt.Errorf("sim: journal: encode: %w", err)
	}
	return j.write(snapshot, st.Epoch, b)
}

// write makes one encoded entry durable: the snapshot of epoch when
// snapshot is set, the next log record otherwise. On nil return the
// bytes are synced. A failed write leaves the files in an unknown
// state, so it closes the journal: only a Reopen, which salvages them,
// may write again.
func (j *Journal) write(snapshot bool, epoch int, entry []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("sim: journal: closed")
	}
	var err error
	if snapshot {
		err = j.snapshotLocked(epoch, entry)
	} else {
		err = j.appendLocked(entry)
	}
	if err != nil {
		_ = j.closeLocked()
		return fmt.Errorf("sim: journal: %w", err)
	}
	return nil
}

// appendLocked writes entry as the next log record and syncs it. The
// first record after an open or a snapshot creates its segment, whose
// directory entry is made durable before any record in it counts.
//
// ghlint:holds j.mu
func (j *Journal) appendLocked(entry []byte) error {
	if j.cur == nil {
		name := segName(j.nextSeq)
		f, err := j.fs.Create(name)
		if err != nil {
			return fmt.Errorf("create segment: %w", err)
		}
		if err := j.fs.SyncDir(); err != nil {
			_ = f.Close()
			return fmt.Errorf("sync dir after segment create: %w", err)
		}
		j.cur = f
		j.segNames = append(j.segNames, name)
	}
	b, err := appendFrame(nil, j.nextSeq, recState, entry)
	if err != nil {
		return err
	}
	if _, err := j.cur.Write(b); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := j.cur.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	j.nextSeq++
	return nil
}

// snapshotLocked seals the open segment, publishes entry as the
// snapshot of epoch, covering every record so far, and prunes what it
// supersedes. It returns nil once the snapshot is durable, even if
// pruning then fails: that is a warning, and the next open or snapshot
// clears the leftovers.
//
// ghlint:holds j.mu
func (j *Journal) snapshotLocked(epoch int, entry []byte) error {
	// Every live record must be on disk under a closed file before the
	// snapshot that supersedes it exists.
	if j.cur != nil {
		err := j.cur.Close()
		j.cur = nil
		if err != nil {
			return fmt.Errorf("close segment: %w", err)
		}
	}
	b, err := appendFrame(nil, j.nextSeq-1, typeSnapshot, entry)
	if err != nil {
		return err
	}
	name := snapName(epoch)
	if err := j.writeFile(tmpSnap, name, b); err != nil {
		return err
	}
	if err := j.fs.SyncDir(); err != nil {
		return fmt.Errorf("sync dir after snapshot: %w", err)
	}
	j.lastSnapEpoch = epoch
	if err := j.pruneLocked(name); err != nil {
		j.logf("wal: pruning behind snapshot %s: %v", name, err)
	}
	return nil
}

// pruneLocked deletes every segment and every snapshot but keep, all
// covered by keep. Deleting them is not a correctness point: a crash
// mid-prune leaves files the next open discards.
//
// ghlint:holds j.mu
func (j *Journal) pruneLocked(keep string) error {
	for i, seg := range j.segNames {
		if err := j.fs.Remove(seg); err != nil {
			j.segNames = j.segNames[i:]
			return err
		}
	}
	j.segNames = nil
	names, err := j.fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if n != keep && strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			if err := j.fs.Remove(n); err != nil {
				return err
			}
		}
	}
	return j.fs.SyncDir()
}

// Segments reports how many live log segments the state dir holds.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segNames)
}

// LastSnapshotEpoch reports the epoch of the newest snapshot, -1 when
// none exists.
func (j *Journal) LastSnapshotEpoch() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSnapEpoch
}

// Close seals the open segment. The journal cannot commit afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closeLocked()
}

// ghlint:holds j.mu
func (j *Journal) closeLocked() error {
	j.closed = true
	if j.cur == nil {
		return nil
	}
	err := j.cur.Close()
	j.cur = nil
	return err
}

// segName and snapName build the canonical file names.
func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix) }
func snapName(epoch int) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(epoch), snapSuffix)
}

// parseHex extracts the 16-hex-digit number of name between prefix and
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

// frame is one decoded frame; data aliases the buffer it came from.
type frame struct {
	seq  uint64
	typ  byte
	data []byte
}

// appendFrame appends the encoding of one frame to dst.
func appendFrame(dst []byte, seq uint64, typ byte, data []byte) ([]byte, error) {
	if len(data) > maxRecordBytes-payloadFixedLen {
		return nil, fmt.Errorf("record too large (%d bytes)", len(data))
	}
	var hdr [frameHeaderLen + payloadFixedLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadFixedLen+len(data)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	hdr[16] = typ
	crc := crc32.Update(crc32.Checksum(hdr[8:], crcTable), crcTable, data)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, data...), nil
}

// decodeFrames decodes frames from b until its end or the first frame
// that is torn, corrupt or out of sequence. It returns the good frames,
// the number of clean bytes they span (where the damage starts) and
// the damage, "" when there is none.
func decodeFrames(b []byte) (frames []frame, consumed int, damage string) {
	off := 0
	for off < len(b) {
		rest := b[off:]
		if len(rest) < frameHeaderLen {
			return frames, off, "torn frame header"
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n < payloadFixedLen || n > maxRecordBytes {
			return frames, off, fmt.Sprintf("implausible frame length %d", n)
		}
		if len(rest) < frameHeaderLen+n {
			return frames, off, "torn frame payload"
		}
		payload := rest[frameHeaderLen : frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return frames, off, "CRC32C mismatch"
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		if len(frames) > 0 && seq != frames[len(frames)-1].seq+1 {
			return frames, off, fmt.Sprintf("sequence gap: %d after %d", seq, frames[len(frames)-1].seq)
		}
		frames = append(frames, frame{seq: seq, typ: payload[8], data: payload[payloadFixedLen:]})
		off += frameHeaderLen + n
	}
	return frames, off, ""
}

// Package persist gives a broker crash-durable state: an append-only
// journal of CRC-framed records with torn-tail recovery, plus a
// snapshot that is replaced atomically and truncates the journal it
// compacts. The package stores opaque byte records — what a record
// means (a subscription arrival, a neighbor attach, a dedup entry) is
// the caller's business, which keeps persist free of import cycles
// with the broker and wire layers.
//
// Durability model: Append buffers a record into the journal file;
// Sync makes everything appended so far survive a crash. A crash
// between Append and Sync may lose the unsynced tail — and may leave
// a torn, partially written record at the end of the file. Open scans
// the journal, keeps the longest valid prefix, and truncates the rest,
// so recovery always replays a clean sequence of records.
//
// WriteSnapshot is the compaction point: the snapshot payload is
// written to a temp file, fsynced, and renamed over the previous
// snapshot before the journal is reset. If the process dies between
// the rename and the reset, recovery sees the new snapshot plus the
// old journal records — callers must therefore apply journal records
// idempotently (the broker replay path tolerates re-applied
// subscriptions by construction).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File layout inside a DirStore directory.
const (
	journalName  = "journal.wal"
	snapshotName = "snapshot.bin"
	snapshotTemp = "snapshot.tmp"
)

// Magic prefixes distinguish the two files (and reject files that are
// not ours at all). Both are 8 bytes so the record scanner can treat
// "shorter than magic" uniformly as an empty store.
var (
	journalMagic  = [8]byte{'P', 'S', 'U', 'M', 'W', 'A', 'L', '1'}
	snapshotMagic = [8]byte{'P', 'S', 'U', 'M', 'S', 'N', 'P', '1'}
)

// Record framing: 4-byte little-endian payload length, 4-byte IEEE
// CRC32 of the payload, then the payload bytes. The CRC covers the
// payload only; a corrupted length field is caught either by the
// bounds check or by the CRC of whatever bytes it points at.
const (
	recHeaderLen = 8
	// MaxRecord bounds a single record. It matches the wire codec's
	// payload cap: anything larger is a corrupt length field, not data.
	MaxRecord = 16 << 20
)

// ReplayStats reports what a journal scan found.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// Truncated reports that the journal ended in a torn or corrupt
	// record (or a bad magic) and the tail was discarded.
	Truncated bool
	// DroppedBytes counts the bytes discarded after the last valid
	// record.
	DroppedBytes int64
}

// Store is the persistence surface a broker journal runs against.
// Implementations must be safe for use from a single goroutine; the
// caller (pubsub.BrokerJournal) serializes access.
type Store interface {
	// LoadSnapshot returns the current snapshot payload, or ok=false
	// when no snapshot has ever been written.
	LoadSnapshot() (payload []byte, ok bool, err error)
	// WriteSnapshot atomically replaces the snapshot and resets the
	// journal: records appended before the call are compacted into the
	// snapshot and will not be replayed again.
	WriteSnapshot(payload []byte) error
	// Append adds one record to the journal. The record is not crash
	// durable until Sync returns.
	Append(rec []byte) error
	// Sync makes all appended records crash durable.
	Sync() error
	// Replay calls fn for every journal record in append order. The
	// slice passed to fn is only valid during the call.
	Replay(fn func(rec []byte) error) (ReplayStats, error)
	// Close releases resources. The store must not be used after.
	Close() error
}

// appendRecord frames one record into buf.
func appendRecord(buf []byte, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// scanRecords walks framed records in data (which excludes any file
// magic), calling fn for each valid one, and returns the length of the
// valid prefix. Scanning stops — without error — at the first torn or
// corrupt record: a truncated header, a length beyond the remaining
// bytes or MaxRecord, or a CRC mismatch. An error from fn aborts the
// scan and is returned as-is.
func scanRecords(data []byte, fn func(rec []byte) error) (validLen int, stats ReplayStats, err error) {
	off := 0
	for {
		if len(data)-off < recHeaderLen {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecord || n > len(data)-off-recHeaderLen {
			break
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, stats, err
			}
		}
		off += recHeaderLen + n
		stats.Records++
	}
	if off < len(data) {
		stats.Truncated = true
		stats.DroppedBytes = int64(len(data) - off)
	}
	return off, stats, nil
}

// ScanJournal replays a raw journal image (magic included) from
// memory: fn is called for every valid record and the stats report
// how much tail, if any, was unrecoverable. It never panics on
// corrupt input — a bad or missing magic simply means zero records.
// This is the entry point the log-replay fuzzer drives.
func ScanJournal(data []byte, fn func(rec []byte) error) (ReplayStats, error) {
	body, ok := journalBody(data)
	if !ok {
		return ReplayStats{Truncated: len(data) > 0, DroppedBytes: int64(len(data))}, nil
	}
	_, stats, err := scanRecords(body, fn)
	return stats, err
}

// journalBody strips and validates the journal magic.
func journalBody(data []byte) ([]byte, bool) {
	if len(data) < len(journalMagic) {
		return nil, false
	}
	for i, b := range journalMagic {
		if data[i] != b {
			return nil, false
		}
	}
	return data[len(journalMagic):], true
}

// DirStore persists to a directory: journal.wal plus snapshot.bin.
type DirStore struct {
	mu  sync.Mutex
	dir string
	f   *os.File // journal, positioned at its valid end
	// openStats captures what the opening scan found, surfaced through
	// the first Replay so recovery can report torn-tail truncation.
	openStats ReplayStats
	// frame is Append's framing buffer, reused across records.
	// +guarded_by:mu
	frame []byte
}

// Open opens (creating if needed) the persistent store in dir. The
// journal is scanned for its longest valid prefix and physically
// truncated there, so later appends never follow garbage.
func Open(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &DirStore{dir: dir, f: f}
	if err := s.recoverJournal(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recoverJournal validates the magic, finds the longest valid record
// prefix, and truncates the file to it.
func (s *DirStore) recoverJournal() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("persist: read journal: %w", err)
	}
	if len(data) == 0 {
		if _, err := s.f.Write(journalMagic[:]); err != nil {
			return fmt.Errorf("persist: init journal: %w", err)
		}
		return s.f.Sync()
	}
	body, ok := journalBody(data)
	if !ok {
		// Torn inside the magic itself (a crash during init), or a file
		// that is not ours. A valid prefix of the magic is recoverable —
		// rewrite it; anything else is refused rather than clobbered.
		if isMagicPrefix(data) {
			s.openStats = ReplayStats{Truncated: true, DroppedBytes: int64(len(data))}
			return s.resetJournal()
		}
		return fmt.Errorf("persist: %s is not a journal", filepath.Join(s.dir, journalName))
	}
	validLen, stats, _ := scanRecords(body, nil)
	s.openStats = stats
	end := int64(len(journalMagic) + validLen)
	if end < int64(len(data)) {
		if err := s.f.Truncate(end); err != nil {
			return fmt.Errorf("persist: truncate torn tail: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	_, err = s.f.Seek(end, io.SeekStart)
	return err
}

func isMagicPrefix(data []byte) bool {
	if len(data) >= len(journalMagic) {
		return false
	}
	for i := range data {
		if data[i] != journalMagic[i] {
			return false
		}
	}
	return true
}

// resetJournal truncates the journal to just its magic.
func (s *DirStore) resetJournal() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("persist: reset journal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := s.f.Write(journalMagic[:]); err != nil {
		return fmt.Errorf("persist: reset journal: %w", err)
	}
	return s.f.Sync()
}

// LoadSnapshot reads and validates snapshot.bin.
func (s *DirStore) LoadSnapshot() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("persist: read snapshot: %w", err)
	}
	payload, err := decodeSnapshot(data)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// decodeSnapshot validates magic + single-record framing.
func decodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < len(snapshotMagic)+recHeaderLen {
		return nil, errors.New("persist: snapshot too short")
	}
	for i, b := range snapshotMagic {
		if data[i] != b {
			return nil, errors.New("persist: bad snapshot magic")
		}
	}
	body := data[len(snapshotMagic):]
	n := int(binary.LittleEndian.Uint32(body[0:4]))
	sum := binary.LittleEndian.Uint32(body[4:8])
	if n != len(body)-recHeaderLen {
		return nil, errors.New("persist: snapshot length mismatch")
	}
	payload := body[recHeaderLen:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("persist: snapshot checksum mismatch")
	}
	return payload, nil
}

// WriteSnapshot atomically replaces the snapshot, then resets the
// journal it compacts.
func (s *DirStore) WriteSnapshot(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, 0, len(snapshotMagic)+recHeaderLen+len(payload))
	buf = append(buf, snapshotMagic[:]...)
	buf = appendRecord(buf, payload)
	tmp := filepath.Join(s.dir, snapshotTemp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return s.resetJournal()
}

// maxKeptFrame is the largest framing buffer Append keeps for the next
// record.
const maxKeptFrame = 64 << 10

// Append frames one record onto the journal.
func (s *DirStore) Append(rec []byte) error {
	if len(rec) > MaxRecord {
		return fmt.Errorf("persist: record of %d bytes exceeds cap", len(rec))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frame = appendRecord(s.frame[:0], rec)
	_, err := s.f.Write(s.frame)
	// One outsized record does not pin its buffer for the store's life.
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil
	}
	if err != nil {
		return fmt.Errorf("persist: append: %w", err)
	}
	return nil
}

// Sync fsyncs the journal.
func (s *DirStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Replay re-reads the journal and calls fn per record. The first call
// after Open also carries the torn-tail stats the opening scan found.
func (s *DirStore) Replay(fn func(rec []byte) error) (ReplayStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return ReplayStats{}, err
	}
	data, err := io.ReadAll(s.f)
	if err != nil {
		return ReplayStats{}, fmt.Errorf("persist: read journal: %w", err)
	}
	body, ok := journalBody(data)
	if !ok {
		return ReplayStats{}, errors.New("persist: journal lost its magic")
	}
	_, stats, err := scanRecords(body, fn)
	if err != nil {
		return stats, err
	}
	stats.Truncated = stats.Truncated || s.openStats.Truncated
	stats.DroppedBytes += s.openStats.DroppedBytes
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return stats, err
	}
	return stats, nil
}

// Close closes the journal file.
func (s *DirStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories; a rename that
	// reaches the directory entry without it still recovers correctly
	// (the old snapshot plus full journal), so the error is best-effort.
	_ = d.Sync()
	return nil
}

// MemStore is an in-memory Store for tests and the simnet chaos
// harness. It models the durability boundary exactly: records
// appended after the last Sync are lost by Crash, the way a real
// crash loses an unsynced journal tail.
type MemStore struct {
	mu       sync.Mutex
	snapshot []byte
	hasSnap  bool
	records  [][]byte
	synced   int // records[:synced] survive a crash
	crashes  int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// LoadSnapshot returns the current snapshot payload.
func (s *MemStore) LoadSnapshot() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasSnap {
		return nil, false, nil
	}
	out := make([]byte, len(s.snapshot))
	copy(out, s.snapshot)
	return out, true, nil
}

// WriteSnapshot replaces the snapshot and compacts away the journal.
func (s *MemStore) WriteSnapshot(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshot = append([]byte(nil), payload...)
	s.hasSnap = true
	s.records = nil
	s.synced = 0
	return nil
}

// Append adds a record to the (unsynced) journal tail.
func (s *MemStore) Append(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, append([]byte(nil), rec...))
	return nil
}

// Sync marks every appended record crash-survivable.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = len(s.records)
	return nil
}

// Replay walks the journal records in order.
func (s *MemStore) Replay(fn func(rec []byte) error) (ReplayStats, error) {
	s.mu.Lock()
	recs := s.records
	s.mu.Unlock()
	var stats ReplayStats
	for _, r := range recs {
		if err := fn(r); err != nil {
			return stats, err
		}
		stats.Records++
	}
	return stats, nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// Crash simulates a kill -9: every record appended since the last
// Sync (or snapshot) vanishes, exactly as an unsynced file tail would.
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = s.records[:s.synced]
	s.crashes++
}

// Crashes reports how many times Crash has been called (chaos
// bookkeeping).
func (s *MemStore) Crashes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}

var (
	_ Store = (*DirStore)(nil)
	_ Store = (*MemStore)(nil)
)

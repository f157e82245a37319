package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func replayAll(t *testing.T, s Store) ([][]byte, ReplayStats) {
	t.Helper()
	var recs [][]byte
	stats, err := s.Replay(func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 5000)}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, stats := replayAll(t, s2)
	if stats.Records != len(want) || stats.Truncated {
		t.Fatalf("stats = %+v, want %d records untruncated", stats, len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	// Appending after a replay must extend, not clobber.
	if err := s2.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _ = replayAll(t, s2)
	if len(recs) != 4 || string(recs[3]) != "post" {
		t.Fatalf("after append got %d records, last %q", len(recs), recs[len(recs)-1])
	}
}

func TestDirStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"one", "two", "three"} {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"torn header", append(append([]byte(nil), data...), 0x05, 0x00)},
		{"torn payload", func() []byte {
			d := append([]byte(nil), data...)
			return appendRecord(d, []byte("tail"))[:len(data)+recHeaderLen+2]
		}()},
		{"corrupt crc", func() []byte {
			d := appendRecord(append([]byte(nil), data...), []byte("tail"))
			d[len(d)-1] ^= 0xFF
			return d
		}()},
		{"mid-file corruption drops rest", func() []byte {
			d := appendRecord(append([]byte(nil), data...), []byte("tail"))
			// Flip a byte of record "two"'s payload: three and tail must
			// also be dropped because scanning cannot resync.
			d[len(journalMagic)+recHeaderLen+3+recHeaderLen] ^= 0xFF
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			recs, stats := replayAll(t, s)
			wantRecs := 3
			if tc.name == "mid-file corruption drops rest" {
				wantRecs = 1
			}
			if len(recs) != wantRecs {
				t.Fatalf("recovered %d records, want %d", len(recs), wantRecs)
			}
			if !stats.Truncated || stats.DroppedBytes == 0 {
				t.Fatalf("stats = %+v, want truncation reported", stats)
			}
			// The file itself must have been truncated to the valid
			// prefix so future appends are clean.
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(onDisk) >= len(tc.bytes) {
				t.Fatalf("journal not truncated: %d bytes on disk", len(onDisk))
			}
			if err := s.Append([]byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			recs, stats = replayAll(t, s)
			if len(recs) != wantRecs+1 || string(recs[len(recs)-1]) != "fresh" {
				t.Fatalf("append after truncation: got %d records %q", len(recs), recs)
			}
			// Restore the full valid journal for the next subcase.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

func TestDirStoreTornMagicRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, journalMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on torn magic: %v", err)
	}
	defer s.Close()
	recs, stats := replayAll(t, s)
	if len(recs) != 0 || !stats.Truncated {
		t.Fatalf("got %d records, stats %+v", len(recs), stats)
	}
}

func TestDirStoreSnapshotCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("state-v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, ok, err := s2.LoadSnapshot()
	if err != nil || !ok || string(snap) != "state-v1" {
		t.Fatalf("snapshot = %q ok=%v err=%v", snap, ok, err)
	}
	recs, _ := replayAll(t, s2)
	if len(recs) != 1 || string(recs[0]) != "post" {
		t.Fatalf("journal after snapshot = %q, want only post", recs)
	}
}

func TestDirStoreCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := s2.LoadSnapshot(); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

func TestMemStoreCrashDropsUnsyncedTail(t *testing.T) {
	s := NewMemStore()
	if err := s.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	recs, _ := replayAll(t, s)
	if len(recs) != 1 || string(recs[0]) != "a" {
		t.Fatalf("after crash: %q, want only the synced record", recs)
	}
	if s.Crashes() != 1 {
		t.Fatalf("crashes = %d", s.Crashes())
	}

	// Snapshot implies durability; crash right after must keep it.
	if err := s.WriteSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	snap, ok, _ := s.LoadSnapshot()
	if !ok || string(snap) != "snap" {
		t.Fatalf("snapshot lost: %q ok=%v", snap, ok)
	}
	recs, _ = replayAll(t, s)
	if len(recs) != 0 {
		t.Fatalf("unsynced post-snapshot record survived: %q", recs)
	}
}

func TestScanJournalNeverPanics(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0x00},
		journalMagic[:],
		append(append([]byte(nil), journalMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0),
	}
	for _, in := range inputs {
		if _, err := ScanJournal(in, func([]byte) error { return nil }); err != nil {
			t.Fatalf("ScanJournal(%x): %v", in, err)
		}
	}
}

// TestDirStoreAppendAllocs pins Append's framing buffer reuse: a
// steady stream of small records allocates nothing per record.
func TestDirStoreAppendAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := bytes.Repeat([]byte{0x5A}, 200)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %.1f times per record, want 0", allocs)
	}
	recs, _ := replayAll(t, s)
	if len(recs) != 201 || !bytes.Equal(recs[200], rec) {
		t.Fatalf("replayed %d records, want 201 copies of the record", len(recs))
	}
}

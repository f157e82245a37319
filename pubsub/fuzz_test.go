package pubsub

// Fuzz layer pinning the wire codec: decoding arbitrary bytes never
// panics or over-reads, and every decodable frame round-trips
// identically. The seed corpus under testdata/fuzz/ holds one
// well-formed frame per message kind, the handshake frames, a
// truncation of each, and malformed prefixes; regenerate it with
//
//	go test ./pubsub -run TestWriteFuzzCorpus -write-fuzz-corpus

import (
	"probsum/internal/broker"
	"probsum/internal/persist"
	"probsum/internal/store"
	"probsum/internal/subscription"

	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds returns the seed inputs shared by both fuzz targets and
// the checked-in corpus: every message kind and the handshake frames,
// each whole and cut one byte short, and malformed variants.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, fr := range append(codecTestFrames(), handshakeTestFrames()...) {
		data, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)-1])
	}
	seeds = append(seeds,
		[]byte("{\"hello\":\"B1\"}\n"),
		[]byte{binMagic},
		[]byte{binMagic, binVersion - 1, 2, 0, 0, 0, byte(broker.MsgUnsubscribe), 0x00},
		[]byte{binMagic, binVersion, 0xFF, 0xFF, 0xFF, 0x00},
		[]byte{binMagic, binVersion, 0xFF, 0xFF, 0xFF, 0x7F},
		[]byte{binMagic, binVersion, 2, 0, 0, 0, 0x05, 0xFF},
		// A truncated gossip member count; a gossip-delta truncated
		// before its required member-view hash; a gossip-delta whose
		// hash is the reserved zero; a ping-req with an undefined flags
		// byte; a ping-req truncated before its piggyback member list;
		// a hello with an undefined flags byte; a hello cut before its
		// cluster byte.
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgGossip), 0xFF},
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgGossipDelta), 0x00},
		[]byte{binMagic, binVersion, 10, 0, 0, 0, byte(broker.MsgGossipDelta), 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgPingReq), 0x02},
		[]byte{binMagic, binVersion, 6, 0, 0, 0, byte(broker.MsgPingReq), 0x00, 0x02, 'B', '3', 0x07},
		[]byte{binMagic, binVersion, 6, 0, 0, 0, kindHello, 0x02, 0x01, 'B', 0x00, 0x00},
		[]byte{binMagic, binVersion, 5, 0, 0, 0, kindHello, 0x00, 0x01, 'B', 0x00},
	)
	return seeds
}

// FuzzFrameDecode: arbitrary bytes must never panic the decoder; a
// successful decode must report a sane consumed length and yield a
// frame the encoder accepts back.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if _, err := MarshalFrame(CodecBinary5, nil, &fr); err != nil {
			t.Fatalf("re-encode of decoded frame: %v", err)
		}
	})
}

// FuzzFrameRoundTrip: any decodable input must survive
// decode → encode → decode identically.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		enc, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, n, err := UnmarshalFrame(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n, len(enc))
		}
		if fr.Msg == nil {
			if got != fr {
				t.Fatalf("handshake round trip:\n in  %+v\n out %+v", fr, got)
			}
			return
		}
		if got.Msg == nil || canonMsg(t, got.Msg) != canonMsg(t, fr.Msg) {
			t.Fatalf("round trip:\n in  %s\n out %+v", canonMsg(t, fr.Msg), got.Msg)
		}
	})
}

// logReplaySeeds builds seed journal images for FuzzLogReplay: a
// well-formed journal covering every record kind (written through the
// real DirStore so the file magic and CRC framing are authentic),
// torn and bit-flipped variants, and degenerate prefixes.
func logReplaySeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	recs := [][]byte{
		encodeAttachRecord("alice", true),
		encodeAttachRecord("N1", false),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)}),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgSubscribe, SubID: "s2", Sub: box(60, 90, 60, 90)}),
		encodeMessageRecord("N1", &broker.Message{Kind: broker.MsgPublish, PubID: "p1", Pub: subscription.NewPublication(10, 10)}),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgUnsubscribe, SubID: "s2"}),
		encodePubIDsRecord([]string{"p1", "p2"}),
	}
	for _, r := range recs {
		if r == nil {
			tb.Fatal("seed record failed to encode")
		}
		if err := st.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		data,
		data[:len(data)/2],  // torn mid-record
		data[:len(data)-1],  // torn final byte
		{},                  // empty journal
		[]byte("PSUM"),      // partial magic
		[]byte("bogusfile"), // foreign file
	}
	if len(data) > 40 {
		bad := append([]byte(nil), data...)
		bad[30] ^= 0xFF // CRC mismatch mid-journal cuts the valid prefix there
		seeds = append(seeds, bad)
	}
	return seeds
}

// FuzzLogReplay: an arbitrary byte string treated as a journal image
// must never panic the replay path — the scanner recovers the longest
// valid record prefix, the record applier either applies or skips
// each one, and the broker that absorbed whatever replayed remains
// fully usable.
func FuzzLogReplay(f *testing.F) {
	for _, s := range logReplaySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := broker.New("R", store.PolicyPairwise)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		stats, err := persist.ScanJournal(data, func(rec []byte) error {
			if applyRecord(b, rec) == nil {
				applied++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned an error although the apply callback never did: %v", err)
		}
		if applied > stats.Records {
			t.Fatalf("applied %d records but the scanner only validated %d", applied, stats.Records)
		}
		if stats.Truncated != (stats.DroppedBytes > 0) {
			t.Fatalf("inconsistent truncation report: %+v", stats)
		}
		// The longest-valid-prefix recovery is deterministic.
		again, err := persist.ScanJournal(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again != stats {
			t.Fatalf("re-scan diverged: %+v vs %+v", again, stats)
		}
		// Whatever replayed, the broker still serves traffic.
		b.AttachClient("fuzz-probe-client")
		if _, err := b.Handle("fuzz-probe-client", broker.Message{
			Kind: broker.MsgSubscribe, SubID: "fuzz-probe-sub", Sub: box(0, 1, 0, 1),
		}); err != nil {
			t.Fatalf("broker unusable after replay: %v", err)
		}
	})
}

var writeFuzzCorpus = flag.Bool("write-fuzz-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// TestWriteFuzzCorpus regenerates the seed corpus files (golden-file
// update pattern); without the flag it only verifies the checked-in
// corpus is present and decodes or fails cleanly.
func TestWriteFuzzCorpus(t *testing.T) {
	targets := map[string]func(testing.TB) [][]byte{
		"FuzzFrameDecode":    fuzzSeeds,
		"FuzzFrameRoundTrip": fuzzSeeds,
		"FuzzLogReplay":      logReplaySeeds,
	}
	if *writeFuzzCorpus {
		for target, seedsOf := range targets {
			dir := filepath.Join("testdata", "fuzz", target)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seedsOf(t) {
				// The Go fuzz corpus file format: a version header and
				// one Go-syntax literal per fuzz argument.
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	for target := range targets {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no checked-in corpus for %s (run with -write-fuzz-corpus)", target)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
				t.Errorf("%s: not a go fuzz corpus file", f)
			}
		}
	}
}

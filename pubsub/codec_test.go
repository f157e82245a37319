package pubsub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// codecTestFrames is one message frame of every kind, shared by the
// round-trip tests, the fuzz seeds, and the corpus generator.
func codecTestFrames() []Frame {
	sub := subscription.New(interval.New(0, 50), interval.New(-10, 1000))
	sub2 := subscription.New(interval.New(3, 3), interval.New(0, 0))
	pub := subscription.NewPublication(25, 500)
	return []Frame{
		{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "alice/1", Sub: sub}},
		{Msg: &broker.Message{Kind: broker.MsgUnsubscribe, SubID: "alice/1"}},
		{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: "p-1", Pub: pub}},
		{Msg: &broker.Message{Kind: broker.MsgNotify, SubID: "alice/1", PubID: "p-1", Pub: pub}},
		{Msg: &broker.Message{Kind: broker.MsgNotifyBatch, PubID: "p-1", Pub: pub, SubIDs: []string{"alice/1", "alice/2"}}},
		{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch, Subs: []broker.BatchSub{
			{SubID: "b/1", Sub: sub},
			{SubID: "b/2", Sub: sub2},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: []string{"b/1", "b/2"}}},
		// Producer-side publish batches and the cluster membership
		// control frames.
		{Msg: &broker.Message{Kind: broker.MsgPublishBatch, Pubs: []broker.BatchPub{
			{PubID: "p-1", Pub: pub},
			{PubID: "p-2", Pub: subscription.NewPublication(3)},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgPing, Seq: 42}},
		{Msg: &broker.Message{Kind: broker.MsgPong, Seq: 42}},
		{Msg: &broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
			{ID: "B1", Addr: "10.0.0.7:7001", Incarnation: 3, State: broker.MemberAlive},
			{ID: "B2", Incarnation: 1, State: broker.MemberDead},
		}}},
		// Gossip piggybacking a link digest, and the digest-mismatch
		// sync exchange.
		{Msg: &broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
			{ID: "B1", Addr: "10.0.0.7:7001", Incarnation: 3, State: broker.MemberAlive},
		}, Digest: &broker.LinkDigest{Count: 7, Root: 0xC0FFEE}}},
		{Msg: &broker.Message{Kind: broker.MsgSyncRequest, Buckets: []uint64{0, 1, ^uint64(0)}}},
		{Msg: &broker.Message{Kind: broker.MsgSyncRoots, Mask: 0b1010, Subs: []broker.BatchSub{
			{SubID: "b/1", Sub: sub},
		}}},
		// Indirect probes (both directions) and bounded delta gossip
		// with its required member-view hash, plus the ping/pong
		// piggyback tail.
		{Msg: &broker.Message{Kind: broker.MsgPingReq, Target: "B3", Seq: 9, Members: []broker.MemberInfo{
			{ID: "B4", Addr: "10.0.0.9:7001", Incarnation: 2, State: broker.MemberSuspect},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgPingReq, Ack: true, Target: "B3", Seq: 9}},
		{Msg: &broker.Message{Kind: broker.MsgPing, Seq: 7, Members: []broker.MemberInfo{
			{ID: "B5", Incarnation: 4, State: broker.MemberAlive},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgGossipDelta, MemberHash: 0xFEED, Members: []broker.MemberInfo{
			{ID: "B6", Addr: "10.0.0.11:7001", Incarnation: 1, State: broker.MemberAlive},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgGossipDelta, MemberHash: 1,
			Digest: &broker.LinkDigest{Count: 3, Root: 0xBEEF}}},
		// Degenerate payloads the codec must carry faithfully.
		{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: ""}},
		{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch}},
		{Msg: &broker.Message{Kind: broker.MsgPublishBatch}},
		{Msg: &broker.Message{Kind: broker.MsgGossip}},
		{Msg: &broker.Message{Kind: broker.MsgPing}},
	}
}

// canonMsg renders a message for comparison, with empty slices
// reduced to nil: the nil-vs-empty difference is invisible on the wire.
func canonMsg(t testing.TB, m *broker.Message) string {
	t.Helper()
	c := *m
	if len(c.Subs) == 0 {
		c.Subs = nil
	}
	if len(c.SubIDs) == 0 {
		c.SubIDs = nil
	}
	if len(c.Pubs) == 0 {
		c.Pubs = nil
	}
	if len(c.Members) == 0 {
		c.Members = nil
	}
	if len(c.Buckets) == 0 {
		c.Buckets = nil
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("canon: %v", err)
	}
	return string(data)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, fr := range codecTestFrames() {
		data, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			t.Fatalf("marshal %+v: %v", fr.Msg, err)
		}
		got, n, err := UnmarshalFrame(data)
		if err != nil {
			t.Fatalf("unmarshal %+v: %v", fr.Msg, err)
		}
		if n != len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got.Msg == nil {
			t.Fatalf("round trip lost the message")
		}
		if canonMsg(t, got.Msg) != canonMsg(t, fr.Msg) {
			t.Fatalf("round trip:\n in  %s\n out %s", canonMsg(t, fr.Msg), canonMsg(t, got.Msg))
		}
	}
}

// TestCodecNotifyBatchRoundTrip carries one publication with 1, 2 and
// 40 matched subscription IDs through the codec, order intact, and
// refuses to encode a batch that names none.
func TestCodecNotifyBatchRoundTrip(t *testing.T) {
	pub := subscription.NewPublication(7, -3, 1<<40)
	for _, n := range []int{1, 2, 40} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("client/%02d", i)
		}
		in := broker.Message{Kind: broker.MsgNotifyBatch, PubID: "p-9", Pub: pub, SubIDs: ids}
		data, err := MarshalFrame(CodecBinary5, nil, &Frame{Msg: &in})
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		got, used, err := UnmarshalFrame(data)
		if err != nil || used != len(data) {
			t.Fatalf("n=%d: unmarshal consumed %d of %d bytes, err %v", n, used, len(data), err)
		}
		if canonMsg(t, got.Msg) != canonMsg(t, &in) {
			t.Fatalf("n=%d: round trip:\n in  %s\n out %s", n, canonMsg(t, &in), canonMsg(t, got.Msg))
		}
	}
	if _, err := MarshalFrame(CodecBinary5, nil, &Frame{Msg: &broker.Message{Kind: broker.MsgNotifyBatch, PubID: "p"}}); err == nil {
		t.Fatal("marshal of a notify-batch without IDs succeeded")
	}
}

// handshakeTestFrames is one hello of each shape and an ack.
func handshakeTestFrames() []Frame {
	return []Frame{
		{Hello: "alice", Client: true},
		{Hello: "B1", Cluster: 1},
		{Hello: "B1"},
		{Ack: "B2", Cluster: 1},
		{Ack: "B2"},
	}
}

// TestCodecHandshakeRoundTrip pins that hello and ack travel the same
// frame grammar as every message.
func TestCodecHandshakeRoundTrip(t *testing.T) {
	for _, fr := range handshakeTestFrames() {
		data, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			t.Fatalf("marshal %+v: %v", fr, err)
		}
		if data[0] != binMagic || data[1] != binVersion {
			t.Fatalf("handshake frame header % x", data[:binHeader])
		}
		got, n, err := UnmarshalFrame(data)
		if err != nil || n != len(data) {
			t.Fatalf("unmarshal %+v: consumed %d of %d, err %v", fr, n, len(data), err)
		}
		if got != fr {
			t.Fatalf("handshake round trip:\n in  %+v\n out %+v", fr, got)
		}
	}
	if _, err := MarshalFrame(CodecBinary5, nil, &Frame{}); err == nil {
		t.Fatal("marshal of an empty frame succeeded")
	}
	if _, err := MarshalFrame(WireCodec(4), nil, &Frame{Hello: "B1"}); err == nil {
		t.Fatal("marshal under a foreign codec succeeded")
	}
}

func TestCodecDecodeRejects(t *testing.T) {
	valid, err := MarshalFrame(CodecBinary5, nil, &codecTestFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose length prefix claims one payload byte more than
	// its kind consumes.
	trailing := append(append([]byte{}, valid...), 0)
	trailing[2]++
	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  valid[:3],
		"truncated payload": valid[:len(valid)-1],
		"bad version":       {binMagic, 0x7F, 0, 0, 0, 0},
		"older version":     {binMagic, binVersion - 1, 2, 0, 0, 0, byte(broker.MsgUnsubscribe), 0},
		"trailing bytes":    trailing,
		"oversized length":  {binMagic, binVersion, 0xFF, 0xFF, 0xFF, 0xFF},
		"hostile count":     {binMagic, binVersion, 3, 0, 0, 0, byte(broker.MsgUnsubscribeBatch), 0xFF, 0x7F},
		"unknown kind":      {binMagic, binVersion, 1, 0, 0, 0, 0x63},
		"not a frame":       []byte("garbage\n"),
		"json line":         []byte(`{"hello":"B1","client":true}` + "\n"),
		// The delta member-view hash is required and never zero; the
		// ping-req and hello flags bytes have two defined values; a
		// handshake frame names its sender.
		"bad hello flags":   {binMagic, binVersion, 6, 0, 0, 0, kindHello, 2, 1, 'B', 0, 0},
		"nameless hello":    {binMagic, binVersion, 5, 0, 0, 0, kindHello, 0, 0, 0, 0},
		"nameless ack":      {binMagic, binVersion, 3, 0, 0, 0, kindAck, 0, 0},
		"zero delta hash":   {binMagic, binVersion, 10, 0, 0, 0, byte(broker.MsgGossipDelta), 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad pingreq flags": {binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgPingReq), 2},
		// A notify-batch (pubID "p", publication (0), then the ID list)
		// names at least one subscription, and every ID it counts.
		"notify-batch count 0":       {binMagic, binVersion, 6, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0, 0},
		"notify-batch count > bytes": {binMagic, binVersion, 8, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0, 3, 1, 'a'},
		"notify-batch one ID short":  {binMagic, binVersion, 8, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0, 2, 1, 'a'},
		"notify-batch truncated ID":  {binMagic, binVersion, 9, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0, 1, 3, 'a', 'b'},
		"notify-batch without IDs":   {binMagic, binVersion, 5, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0},
		// Kind 15 was the deleted route-announce: a payload that parsed
		// as one (target, one item) is now an unknown kind.
		"deleted kind 15": {binMagic, binVersion, 10, 0, 0, 0, 15, 2, 'B', '3', 1, 1, 's', 1, 0, 0},
	}
	for name, data := range cases {
		if _, _, err := UnmarshalFrame(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// The notify-batch cases fail on their ID lists: the same prefix
	// with one whole ID decodes.
	one := []byte{binMagic, binVersion, 8, 0, 0, 0, byte(broker.MsgNotifyBatch), 1, 'p', 1, 0, 1, 1, 'a'}
	if fr, _, err := UnmarshalFrame(one); err != nil || len(fr.Msg.SubIDs) != 1 || fr.Msg.SubIDs[0] != "a" {
		t.Errorf("one-ID notify-batch: %+v, %v", fr.Msg, err)
	}
}

// TestFrameReaderTryReadCoalesces pins the coalescing contract: with
// a burst fully buffered, tryRead yields every complete frame and
// stops — without blocking — at a partial tail frame.
func TestFrameReaderTryReadCoalesces(t *testing.T) {
	pubFrame := func(id string) Frame {
		return Frame{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: id, Pub: subscription.NewPublication(1, 2)}}
	}
	var stream []byte
	var err error
	for _, id := range []string{"p1", "p2", "p3"} {
		fr := pubFrame(id)
		if stream, err = MarshalFrame(CodecBinary5, stream, &fr); err != nil {
			t.Fatal(err)
		}
	}
	tail := pubFrame("p4")
	tailBytes, err := MarshalFrame(CodecBinary5, nil, &tail)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, tailBytes[:len(tailBytes)-3]...) // partial frame

	r := newFrameReader(bytes.NewReader(stream))
	var first Frame
	if err := r.read(&first); err != nil {
		t.Fatal(err)
	}
	if first.Msg.PubID != "p1" {
		t.Fatalf("first frame = %+v", first.Msg)
	}
	var got []string
	for {
		var fr Frame
		ok, err := r.tryRead(&fr)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, fr.Msg.PubID)
	}
	if !reflect.DeepEqual(got, []string{"p2", "p3"}) {
		t.Fatalf("coalesced %v, want [p2 p3]", got)
	}
}

// TestFrameReaderReusesBatchArrays pins the reader's decode reuse: each
// frame decodes as UnmarshalFrame decodes it, a batch field reuses the
// array of the last frame of its kind with the elements past its length
// cleared, the elements a message handed out stay as decoded, and an
// array over maxKeptBatch items is not kept.
func TestFrameReaderReusesBatchArrays(t *testing.T) {
	subs := func(prefix string, n int) []broker.BatchSub {
		out := make([]broker.BatchSub, n)
		for i := range out {
			out[i] = broker.BatchSub{SubID: fmt.Sprintf("%s%d", prefix, i), Sub: box(int64(i), int64(i+5), 0, 9)}
		}
		return out
	}
	msgs := []*broker.Message{
		{Kind: broker.MsgSubscribeBatch, Subs: subs("a", 3)},
		{Kind: broker.MsgPublish, PubID: "p", Pub: subscription.NewPublication(1, 2)},
		{Kind: broker.MsgSubscribeBatch, Subs: subs("b", 2)},
		{Kind: broker.MsgUnsubscribeBatch, SubIDs: []string{"a0", "a1"}},
		{Kind: broker.MsgPublishBatch, Pubs: []broker.BatchPub{{PubID: "q", Pub: subscription.NewPublication(3, 4)}}},
		{Kind: broker.MsgSubscribeBatch, Subs: subs("c", maxKeptBatch+1)},
		{Kind: broker.MsgSubscribeBatch, Subs: subs("d", 1)},
	}
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = MarshalFrame(CodecBinary5, stream, &Frame{Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(bytes.NewReader(stream))
	got := make([][]broker.BatchSub, len(msgs))
	var first broker.BatchSub
	for i, m := range msgs {
		var fr Frame
		if err := r.read(&fr); err != nil {
			t.Fatal(err)
		}
		if want := (Frame{Msg: m}); !reflect.DeepEqual(fr, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, fr.Msg, m)
		}
		got[i] = fr.Msg.Subs
		if i == 0 {
			first = fr.Msg.Subs[0]
		}
	}
	if &got[2][0] != &got[0][0] {
		t.Error("the second SUBBATCH did not reuse the first one's array")
	}
	if tail := got[0][:3][2]; !reflect.DeepEqual(tail, broker.BatchSub{}) {
		t.Errorf("element 2 past the second SUBBATCH's length holds %+v, want it cleared", tail)
	}
	if want := subs("a", 1)[0]; !reflect.DeepEqual(first, want) {
		t.Errorf("an element of the first SUBBATCH became %+v after later frames, want %+v", first, want)
	}
	if &got[6][0] == &got[5][0] || cap(got[6]) > maxKeptBatch {
		t.Errorf("the SUBBATCH after one of %d items reused its array (cap %d)", maxKeptBatch+1, cap(got[6]))
	}
}

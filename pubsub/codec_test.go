package pubsub

import (
	"bytes"
	"encoding/json"
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

// handshakeTestFrames is one hello of each shape and an ack.
func handshakeTestFrames() []Frame {
	return []Frame{
		{Hello: "alice", Client: true},
		{Hello: "B1", Addr: "127.0.0.1:7001", Cluster: 1},
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
	}
	for name, data := range cases {
		if _, _, err := UnmarshalFrame(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
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

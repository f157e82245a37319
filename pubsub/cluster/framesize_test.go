package cluster

import (
	"testing"

	"probsum/internal/broker"
	"probsum/pubsub"
)

// TestControlFrameSizeMatchesCodec pins controlFrameSize, the traffic
// gauge's arithmetic mirror of the binary codec, to the bytes the codec
// actually writes for every control frame shape the node sends.
func TestControlFrameSizeMatchesCodec(t *testing.T) {
	members := []broker.MemberInfo{
		{ID: "B1", Addr: "10.0.0.7:7001", Incarnation: 3, State: broker.MemberAlive},
		{ID: "B2", Incarnation: 300, State: broker.MemberSuspect},
		{ID: "B3", Addr: "b3:1", Incarnation: 1, State: broker.MemberDead},
	}
	digest := &broker.LinkDigest{Count: 1000, Root: 0xdeadbeefcafef00d}
	cases := []struct {
		name string
		msg  broker.Message
	}{
		{"ping", broker.Message{Kind: broker.MsgPing, Seq: 1}},
		{"ping with members", broker.Message{Kind: broker.MsgPing, Seq: 1 << 20, Members: members}},
		{"pong", broker.Message{Kind: broker.MsgPong, Seq: 200}},
		{"pong with members", broker.Message{Kind: broker.MsgPong, Seq: 5, Members: members[:1]}},
		{"ping-req", broker.Message{Kind: broker.MsgPingReq, Target: "B2", Seq: 9, Members: members}},
		{"ping-req ack", broker.Message{Kind: broker.MsgPingReq, Ack: true, Target: "B2", Seq: 130}},
		{"gossip", broker.Message{Kind: broker.MsgGossip, Members: members}},
		{"gossip with digest", broker.Message{Kind: broker.MsgGossip, Members: members, Digest: digest}},
		{"gossip-delta", broker.Message{Kind: broker.MsgGossipDelta, MemberHash: 42, Digest: digest}},
		{"gossip-delta with members", broker.Message{Kind: broker.MsgGossipDelta, Members: members[1:], MemberHash: 1 << 63}},
	}
	for _, tc := range cases {
		data, err := pubsub.MarshalFrame(pubsub.CodecBinary5, nil, &pubsub.Frame{Msg: &tc.msg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := controlFrameSize(&tc.msg); got != len(data) {
			t.Errorf("%s: controlFrameSize = %d, codec writes %d bytes", tc.name, got, len(data))
		}
	}
}

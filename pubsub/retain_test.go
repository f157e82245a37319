package pubsub

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"probsum/internal/broker"
	"probsum/internal/persist"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// TestHandleKeepsNoBatchArray pins the contract a frame reader's reuse
// rests on: Broker.Handle keeps no batch array of its message once it
// returns. Two journaling group brokers take the same SUBBATCH,
// UNSUBBATCH, PUBBATCH and SYNCROOTS messages, built separately; after
// each Handle, every element of the first broker's message is
// overwritten. The two must agree after every step on the outputs, the
// routes, the roots and digests per neighbour, and at the end on the
// journal's bytes.
func TestHandleKeepsNoBatchArray(t *testing.T) {
	newBroker := func() (*broker.Broker, *persist.MemStore) {
		b, err := broker.New("B", store.PolicyGroup)
		if err != nil {
			t.Fatal(err)
		}
		st := persist.NewMemStore()
		b.SetJournal(NewBrokerJournal(b, st, 1))
		b.AttachClient("alice")
		for _, n := range []string{"N1", "N2"} {
			if err := b.ConnectNeighbor(n); err != nil {
				t.Fatal(err)
			}
		}
		return b, st
	}
	subs := func(prefix string, from, to int) []BatchSub {
		var out []BatchSub
		for i := from; i < to; i++ {
			lo := int64(i * 37 % 900)
			out = append(out, BatchSub{SubID: fmt.Sprintf("%s%d", prefix, i), Sub: box(lo, lo+int64(20+i%90), lo/2, lo/2+int64(30+i%70))})
		}
		return out
	}
	ids := func(prefix string, from, to, stride int) []string {
		var out []string
		for i := from; i < to; i += stride {
			out = append(out, fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}
	pubs := func(prefix string, n int) []BatchPub {
		var out []BatchPub
		for i := range n {
			out = append(out, BatchPub{PubID: fmt.Sprintf("%s%d", prefix, i), Pub: subscription.NewPublication(int64(i*53%950), int64(i*29%500))})
		}
		return out
	}
	// Each step builds its message afresh on every call.
	steps := []struct {
		from string
		msg  func() broker.Message
	}{
		{"alice", func() broker.Message { return broker.Message{Kind: broker.MsgSubscribeBatch, Subs: subs("a", 0, 60)} }},
		{"N1", func() broker.Message {
			wide := BatchSub{SubID: "wide", Sub: box(0, 1000, 0, 1000)} // every publication routes to N1
			return broker.Message{Kind: broker.MsgSubscribeBatch, Subs: append(append(subs("n", 0, 30), wide), subs("a", 0, 5)...)}
		}},
		{"N2", func() broker.Message { return broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubs("p", 20)} }},
		{"alice", func() broker.Message {
			return broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: ids("a", 0, 60, 3)}
		}},
		{"N1", func() broker.Message {
			return broker.Message{Kind: broker.MsgSyncRoots, Mask: ^uint64(0), Subs: append(subs("n", 10, 30), subs("m", 0, 15)...)}
		}},
		{"alice", func() broker.Message { return broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubs("q", 20)} }},
		{"N1", func() broker.Message {
			return broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: ids("m", 0, 15, 2)}
		}},
	}
	b1, st1 := newBroker()
	b2, st2 := newBroker()
	junk := BatchSub{SubID: "junk", Sub: box(0, 1, 0, 1)}
	for i, step := range steps {
		m1, m2 := step.msg(), step.msg()
		out1, err1 := b1.Handle(step.from, m1)
		out2, err2 := b2.Handle(step.from, m2)
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d (%v): %v, %v", i, m1.Kind, err1, err2)
		}
		for k := range m1.Subs {
			m1.Subs[k] = junk
		}
		for k := range m1.SubIDs {
			m1.SubIDs[k] = "junk"
		}
		for k := range m1.Pubs {
			m1.Pubs[k] = BatchPub{PubID: "junk", Pub: subscription.NewPublication(0, 0)}
		}
		if !reflect.DeepEqual(out1, out2) {
			t.Fatalf("step %d (%v): outputs changed with the message's arrays:\n%v\nwant\n%v", i, m1.Kind, out1, out2)
		}
		if ops1, ops2 := b1.SnapshotOps(), b2.SnapshotOps(); !reflect.DeepEqual(ops1, ops2) {
			t.Fatalf("step %d (%v): routing state changed with the message's arrays", i, m1.Kind)
		}
		for _, n := range []string{"N1", "N2"} {
			if r1, r2 := b1.NeighborRoots(n), b2.NeighborRoots(n); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("step %d (%v): roots for %s %v, want %v", i, m1.Kind, n, r1, r2)
			}
			d1, ok1 := b1.LinkDigest(n)
			d2, ok2 := b2.LinkDigest(n)
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("step %d (%v): digest for %s %v, want %v", i, m1.Kind, n, d1, d2)
			}
		}
	}
	journal := func(st *persist.MemStore) []byte {
		var all []byte
		if _, err := st.Replay(func(rec []byte) error {
			all = append(all, rec...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return all
	}
	if j1, j2 := journal(st1), journal(st2); len(j1) == 0 || !bytes.Equal(j1, j2) {
		t.Fatalf("journal %d bytes, want the %d of the untouched broker's", len(j1), len(j2))
	}
}

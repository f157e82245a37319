package broker

import (
	"fmt"
	"slices"
	"testing"

	"probsum/internal/store"
	"probsum/internal/subscription"
)

// deliver pushes every outbound message addressed to one of the given
// brokers into that broker, returning the next wave — a two-broker
// micro-simulator for digest exchanges.
func deliver(t *testing.T, out []Outbound, fromID string, brokers map[string]*Broker) []Outbound {
	t.Helper()
	var next []Outbound
	for _, o := range out {
		dst, ok := brokers[o.To]
		if !ok {
			continue
		}
		o2, err := dst.Handle(fromID, o.Msg)
		if err != nil {
			t.Fatalf("deliver %v to %s: %v", o.Msg.Kind, o.To, err)
		}
		next = append(next, o2...)
	}
	return next
}

func TestRecvTrackingAndDigestAgreement(t *testing.T) {
	a := newBroker(t, store.PolicyPairwise)
	c, err := New("C", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectNeighbor("C"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectNeighbor("B"); err != nil {
		t.Fatal(err)
	}
	a.AttachClient("cl")

	// Subscribe via A's client: A forwards to C.
	for i := 0; i < 20; i++ {
		out, err := a.Handle("cl", Message{Kind: MsgSubscribe, SubID: fmt.Sprintf("s%02d", i), Sub: box(int64(i*10), int64(i*10+5), 0, 5)})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out {
			if o.To != "C" {
				continue
			}
			if _, err := c.Handle("B", o.Msg); err != nil {
				t.Fatal(err)
			}
		}
	}

	da, ok := a.LinkDigest("C")
	if !ok {
		t.Fatal("no digest for link to C")
	}
	dc := c.ReceivedDigest("B")
	if da != dc {
		t.Fatalf("digests disagree after clean sync: sent %+v received %+v", da, dc)
	}
	if got := len(c.ReceivedFrom("B")); got != int(da.Count) {
		t.Fatalf("recv set has %d entries, digest count %d", got, da.Count)
	}

	// A clean unsubscribe keeps them agreeing.
	out, err := a.Handle("cl", Message{Kind: MsgUnsubscribe, SubID: "s03"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if o.To == "C" {
			if _, err := c.Handle("B", o.Msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	da, _ = a.LinkDigest("C")
	if dc := c.ReceivedDigest("B"); da != dc {
		t.Fatalf("digests disagree after unsubscribe: %+v vs %+v", da, dc)
	}
}

// TestDigestSyncRepairsLostSubscription models a link that dropped a
// SUBSCRIBE (crash, lossy link): the receiver never saw it, the
// sender's table has it active. One gossip digest + sync round must
// deliver it.
func TestDigestSyncRepairsLostSubscription(t *testing.T) {
	a := newBroker(t, store.PolicyNone) // id "B"
	c, err := New("C", store.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectNeighbor("C"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectNeighbor("B"); err != nil {
		t.Fatal(err)
	}
	a.AttachClient("cl")

	// s-lost is forwarded toward C but the frame is "dropped".
	if _, err := a.Handle("cl", Message{Kind: MsgSubscribe, SubID: "s-lost", Sub: box(0, 5, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	if len(c.ReceivedFrom("B")) != 0 {
		t.Fatal("setup: C received the dropped frame")
	}

	// Gossip from A toward C carries A's link digest.
	d, ok := a.LinkDigest("C")
	if !ok {
		t.Fatal(err)
	}
	brokers := map[string]*Broker{"B": a, "C": c}
	wave, err := c.Handle("B", Message{Kind: MsgGossip, Digest: &d})
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != 1 || wave[0].Msg.Kind != MsgSyncRequest {
		t.Fatalf("expected one sync request, got %+v", wave)
	}
	if got := c.Metrics().SyncRequests; got != 1 {
		t.Fatalf("SyncRequests = %d", got)
	}
	// Request -> A, roots -> C, possible onward forwards ignored.
	wave = deliver(t, wave, "C", brokers) // A answers with roots
	if len(wave) != 1 || wave[0].Msg.Kind != MsgSyncRoots {
		t.Fatalf("expected one sync-roots, got %+v", wave)
	}
	deliver(t, wave, "B", brokers)

	if src, ok := c.KnowsSubscription("s-lost"); !ok || src != "B" {
		t.Fatalf("s-lost not repaired: src=%q ok=%v", src, ok)
	}
	da, _ := a.LinkDigest("C")
	if dc := c.ReceivedDigest("B"); da != dc {
		t.Fatalf("digests still disagree after sync: %+v vs %+v", da, dc)
	}
	if got := a.Metrics().SyncRootsResent; got != 1 {
		t.Fatalf("SyncRootsResent = %d", got)
	}

	// A matching publication at C now routes back to A.
	out, err := c.Handle("x", Message{Kind: MsgPublish, PubID: "p1", Pub: subscription.NewPublication(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	foundFwd := false
	for _, o := range out {
		if o.To == "B" && o.Msg.Kind == MsgPublish {
			foundFwd = true
		}
	}
	if !foundFwd {
		t.Fatal("publication not forwarded along the repaired reverse path")
	}
}

// TestDigestSyncPrunesStaleReversePath is the regression test for the
// dead-link unsubscribe bug: the sender processed an Unsubscribe while
// its link to the neighbor was down, so the neighbor keeps the
// subscription — and its reverse-path entry — forever. The digest
// exchange must garbage-collect it and run the full downstream
// cancellation (promotions included).
func TestDigestSyncPrunesStaleReversePath(t *testing.T) {
	a := newBroker(t, store.PolicyPairwise) // id "B"
	c, err := New("C", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("D", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		b    *Broker
		peer string
	}{{a, "C"}, {c, "B"}, {c, "D"}, {d, "C"}} {
		if err := pair.b.ConnectNeighbor(pair.peer); err != nil {
			t.Fatal(err)
		}
	}
	a.AttachClient("cl")
	brokers := map[string]*Broker{"B": a, "C": c, "D": d}

	// Broad root s-broad (covers s-narrow) announced B -> C -> D.
	send := func(from string, b *Broker, msg Message) []Outbound {
		t.Helper()
		out, err := b.Handle(from, msg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wave := send("cl", a, Message{Kind: MsgSubscribe, SubID: "s-broad", Sub: box(0, 100, 0, 100)})
	wave = deliver(t, wave, "B", brokers)
	deliver(t, wave, "C", brokers)
	// Narrow sub from D's side: covered at C toward B? No — announce
	// via C's client port so C suppresses it toward both B and D.
	c.AttachClient("cc")
	send("cc", c, Message{Kind: MsgSubscribe, SubID: "s-narrow", Sub: box(10, 20, 10, 20)})

	if src, ok := d.KnowsSubscription("s-broad"); !ok || src != "C" {
		t.Fatalf("setup: D missing s-broad (src=%q ok=%v)", src, ok)
	}

	// The link C->D "dies": C processes the unsubscribe of s-broad but
	// D never hears about it. Simulate by dropping C's outputs.
	wave = send("cl", a, Message{Kind: MsgUnsubscribe, SubID: "s-broad"})
	for _, o := range wave {
		if o.To == "C" {
			send("B", c, o.Msg) // C's outputs toward D are dropped
		}
	}
	if _, ok := d.KnowsSubscription("s-broad"); !ok {
		t.Fatal("setup: D should still hold the stale s-broad")
	}

	// Digest gossip C -> D detects the divergence; the sync exchange
	// prunes the stale entry and promotes/announces s-narrow.
	dg, ok := c.LinkDigest("D")
	if !ok {
		t.Fatal("no digest for link C->D")
	}
	wave = send("C", d, Message{Kind: MsgGossip, Digest: &dg})
	for len(wave) > 0 {
		// Alternate delivery: requests go to C, roots go to D.
		var next []Outbound
		for _, o := range wave {
			dst := brokers[o.To]
			if dst == nil {
				continue
			}
			fromID := map[string]string{"C": "D", "D": "C"}[o.To]
			next = append(next, send(fromID, dst, o.Msg)...)
		}
		wave = next
	}

	if _, ok := d.KnowsSubscription("s-broad"); ok {
		t.Fatal("stale s-broad not pruned by digest GC")
	}
	if src, ok := d.KnowsSubscription("s-narrow"); !ok || src != "C" {
		t.Fatalf("promoted s-narrow not announced to D (src=%q ok=%v)", src, ok)
	}
	dcd, _ := c.LinkDigest("D")
	if ddc := d.ReceivedDigest("C"); dcd != ddc {
		t.Fatalf("digests disagree after GC: %+v vs %+v", dcd, ddc)
	}
	if d.Metrics().SyncStalePruned == 0 {
		t.Fatal("SyncStalePruned not counted")
	}
	// No stale reverse-path entry: a publication matching only the old
	// broad box must not be forwarded from D to C.
	out := send("x", d, Message{Kind: MsgPublish, PubID: "p-stale", Pub: subscription.NewPublication(90, 90)})
	for _, o := range out {
		if o.To == "C" {
			t.Fatalf("publication still routed along pruned reverse path: %+v", o)
		}
	}
}

// TestDigestSyncPrunesStaleBucket sends one MsgSyncRoots whose masked
// bucket holds many stale entries of the link's received set, owned
// ones and duplicate copies, beside listed ones and entries of other
// buckets. Every stale entry must go: the owned ones retired, the
// copies dropped from the link's received set while their routes stay.
// Pruning the copies while scanning the set would skip entries a
// deletion shifts back into slots the scan has passed.
func TestDigestSyncPrunesStaleBucket(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	for _, n := range []string{"C", "D"} {
		if err := b.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	const stale, listed = 40, 4 // stale of each kind; listed of both
	bucket := digestBucket("q0")
	var in, other []string // SubIDs in the masked bucket, and outside it
	for i := 0; len(in) < 2*stale+listed || len(other) < 8; i++ {
		id := fmt.Sprintf("q%d", i)
		if digestBucket(id) == bucket {
			in = append(in, id)
		} else if len(other) < 8 {
			other = append(other, id)
		}
	}
	subscribe := func(from string, ids []string) {
		t.Helper()
		var subs []BatchSub
		for k, id := range ids {
			subs = append(subs, BatchSub{SubID: id, Sub: box(int64(k), int64(k)+5, 0, 5)})
		}
		if _, err := b.Handle(from, Message{Kind: MsgSubscribeBatch, Subs: subs}); err != nil {
			t.Fatal(err)
		}
	}
	// Even SubIDs are owned by C; odd ones arrive from D first, then as
	// copies over C. So are the entries outside the bucket.
	var owned, copies []string
	for k, id := range slices.Concat(in, other) {
		if k%2 == 0 {
			owned = append(owned, id)
		} else {
			copies = append(copies, id)
		}
	}
	subscribe("C", owned)
	subscribe("D", copies)
	subscribe("C", copies)
	var keep []BatchSub // the listing: the first few of each kind
	for _, id := range in[:listed] {
		keep = append(keep, BatchSub{SubID: id, Sub: box(0, 5, 0, 5)})
	}
	before := b.Metrics().SyncStalePruned
	if _, err := b.Handle("C", Message{Kind: MsgSyncRoots, Mask: 1 << bucket, Subs: keep}); err != nil {
		t.Fatal(err)
	}
	want := append(slices.Clone(in[:listed]), other...)
	slices.Sort(want)
	if got := b.ReceivedFrom("C"); !slices.Equal(got, want) {
		t.Errorf("received over C after the sync: %v, want %v", got, want)
	}
	for k, id := range in {
		src, ok := b.KnowsSubscription(id)
		switch {
		case k%2 == 0 && k >= listed && ok:
			t.Errorf("stale %s owned by C still known", id)
		case k%2 == 1 && (!ok || src != "D"):
			t.Errorf("copy %s: source %q, known %v, want its route from D kept", id, src, ok)
		}
	}
	if got := b.Metrics().SyncStalePruned - before; got != len(in)-listed {
		t.Errorf("SyncStalePruned rose by %d, want %d", got, len(in)-listed)
	}
}

func TestSnapshotOpsRebuildEquivalentBroker(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	for _, n := range []string{"N1", "N2"} {
		if err := b.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	b.AttachClient("cl")
	msgs := []Message{
		{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)},
		{Kind: MsgSubscribe, SubID: "s2", Sub: box(5, 10, 5, 10)},
	}
	for _, m := range msgs {
		if _, err := b.Handle("N1", m); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate copy of s1 over N2, and a client sub.
	if _, err := b.Handle("N2", Message{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handle("cl", Message{Kind: MsgSubscribe, SubID: "s-local", Sub: box(20, 30, 20, 30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handle("N1", Message{Kind: MsgPublish, PubID: "p1", Pub: subscription.NewPublication(25, 25)}); err != nil {
		t.Fatal(err)
	}

	ops := b.SnapshotOps()
	b2 := newBroker(t, store.PolicyPairwise)
	for _, op := range ops {
		switch {
		case op.Attach && op.Client:
			b2.AttachClient(op.Port)
		case op.Attach:
			if err := b2.ConnectNeighbor(op.Port); err != nil {
				t.Fatal(err)
			}
		case op.Msg != nil:
			if _, err := b2.Handle(op.From, *op.Msg); err != nil {
				t.Fatal(err)
			}
		default:
			b2.MarkPubsSeen(op.PubIDs)
		}
	}

	for _, subID := range []string{"s1", "s2", "s-local"} {
		srcWant, _ := b.KnowsSubscription(subID)
		src, ok := b2.KnowsSubscription(subID)
		if !ok || src != srcWant {
			t.Fatalf("sub %s: src=%q ok=%v, want %q", subID, src, ok, srcWant)
		}
	}
	for _, n := range []string{"N1", "N2"} {
		want := b.ReceivedFrom(n)
		got := b2.ReceivedFrom(n)
		if len(want) != len(got) {
			t.Fatalf("recv[%s]: got %v want %v", n, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("recv[%s]: got %v want %v", n, got, want)
			}
		}
	}
	// Dedup window restored: p1 must be dropped as a duplicate.
	out, err := b2.Handle("N1", Message{Kind: MsgPublish, PubID: "p1", Pub: subscription.NewPublication(25, 25)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("replayed pub p1 not deduplicated: %+v", out)
	}
	if b2.Metrics().DupPubsDropped != 1 {
		t.Fatalf("DupPubsDropped = %d", b2.Metrics().DupPubsDropped)
	}
}

package broker

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/match"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

func box(lo1, hi1, lo2, hi2 int64) subscription.Subscription {
	return subscription.New(interval.New(lo1, hi1), interval.New(lo2, hi2))
}

func newBroker(t *testing.T, policy store.Policy) *Broker {
	t.Helper()
	b, err := New("B", policy, WithSeed(5),
		WithTableOptions(subsume.WithTableChecker(
			subsume.WithErrorProbability(1e-9),
			subsume.WithMaxTrials(10_000))))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", store.PolicyNone); err == nil {
		t.Error("empty id accepted")
	}
	if b, err := New("B", store.Policy(42)); err != nil {
		t.Fatal(err)
	} else if err := b.ConnectNeighbor("n1"); err == nil {
		t.Error("invalid policy accepted at ConnectNeighbor")
	}
	b := newBroker(t, store.PolicyNone)
	if err := b.ConnectNeighbor("B"); err == nil {
		t.Error("self neighbor accepted")
	}
	if err := b.ConnectNeighbor("N1"); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectNeighbor("N1"); err != nil {
		t.Errorf("idempotent reconnect errored: %v", err)
	}
	if got := b.Neighbors(); len(got) != 1 || got[0] != "N1" {
		t.Errorf("Neighbors = %v", got)
	}
}

func TestSubscribeForwardsToAllButSource(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	for _, n := range []string{"N1", "N2", "N3"} {
		if err := b.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 5, 0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("forwarded to %d neighbors, want 2", len(out))
	}
	for _, o := range out {
		if o.To == "N1" {
			t.Error("forwarded back to the source")
		}
		if o.Msg.Kind != MsgSubscribe || o.Msg.SubID != "s1" {
			t.Errorf("unexpected message %+v", o.Msg)
		}
	}
}

func TestDuplicateSubscriptionDropped(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	b.ConnectNeighbor("N1")
	b.ConnectNeighbor("N2")
	msg := Message{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 5, 0, 5)}
	if _, err := b.Handle("N1", msg); err != nil {
		t.Fatal(err)
	}
	out, err := b.Handle("N2", msg)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Errorf("duplicate produced output: %v", out)
	}
	if b.Metrics().DupSubsDropped != 1 {
		t.Errorf("DupSubsDropped = %d", b.Metrics().DupSubsDropped)
	}
}

func TestCoverageSuppressionPairwise(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	b.ConnectNeighbor("N1")
	b.ConnectNeighbor("N2")
	if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "big", Sub: box(0, 100, 0, 100)}); err != nil {
		t.Fatal(err)
	}
	out, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "small", Sub: box(40, 60, 40, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("covered subscription forwarded: %v", out)
	}
	m := b.Metrics()
	if m.SubsSuppressed != 1 {
		t.Errorf("SubsSuppressed = %d, want 1", m.SubsSuppressed)
	}
	// But a subscription arriving from N2 must still be forwarded to
	// N1 even though it is covered toward N2's side.
	out, err = b.Handle("N2", Message{Kind: MsgSubscribe, SubID: "fromN2", Sub: box(41, 59, 41, 59)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].To != "N1" {
		t.Errorf("per-neighbor tables broken: %v", out)
	}
}

func TestPublishReversePath(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	b.ConnectNeighbor("N1")
	b.ConnectNeighbor("N2")
	b.AttachClient("C1")
	if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 10, 0, 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handle("C1", Message{Kind: MsgSubscribe, SubID: "c1s", Sub: box(5, 15, 5, 15)}); err != nil {
		t.Fatal(err)
	}
	out, err := b.Handle("N2", Message{Kind: MsgPublish, PubID: "p1", Pub: subscription.NewPublication(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	var toN1, toC1 int
	for _, o := range out {
		switch {
		case o.To == "N1" && o.Msg.Kind == MsgPublish:
			toN1++
		case o.To == "C1" && o.Msg.Kind == MsgNotifyBatch:
			toC1 += len(o.Msg.SubIDs)
		default:
			t.Errorf("unexpected outbound %+v", o)
		}
	}
	if toN1 != 1 || toC1 != 1 {
		t.Errorf("forwarding: toN1=%d toC1=%d, want 1 and 1", toN1, toC1)
	}
	// Publication matching nothing goes nowhere.
	out, err = b.Handle("N2", Message{Kind: MsgPublish, PubID: "p2", Pub: subscription.NewPublication(90, 90)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("non-matching publication produced %v", out)
	}
	// Duplicate publication dropped.
	out, err = b.Handle("N1", Message{Kind: MsgPublish, PubID: "p1", Pub: subscription.NewPublication(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || b.Metrics().DupPubsDropped != 1 {
		t.Errorf("duplicate publication handling: out=%v dups=%d", out, b.Metrics().DupPubsDropped)
	}
}

func TestUnsubscribeForwardsAlongTree(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	b.ConnectNeighbor("N1")
	b.ConnectNeighbor("N2")
	if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "s1", Sub: box(0, 10, 0, 10)}); err != nil {
		t.Fatal(err)
	}
	// Unsubscribe from the wrong port is ignored.
	out, err := b.Handle("N2", Message{Kind: MsgUnsubscribe, SubID: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("unsubscribe from non-source port produced %v", out)
	}
	// From the right port it propagates.
	out, err = b.Handle("N1", Message{Kind: MsgUnsubscribe, SubID: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].To != "N2" || out[0].Msg.Kind != MsgUnsubscribe {
		t.Errorf("unsubscribe propagation = %v", out)
	}
	// Unknown subscription: no-op.
	out, err = b.Handle("N1", Message{Kind: MsgUnsubscribe, SubID: "nope"})
	if err != nil || len(out) != 0 {
		t.Errorf("unknown unsubscribe: out=%v err=%v", out, err)
	}
}

func TestUnsubscribeTriggersPromotionForwarding(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	b.ConnectNeighbor("N1")
	b.ConnectNeighbor("N2")
	if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "big", Sub: box(0, 100, 0, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "small", Sub: box(40, 60, 40, 60)}); err != nil {
		t.Fatal(err)
	}
	out, err := b.Handle("N1", Message{Kind: MsgUnsubscribe, SubID: "big"})
	if err != nil {
		t.Fatal(err)
	}
	// Expect the unsubscribe toward N2 plus the late forward of small.
	var sawUnsub, sawLateSub bool
	for _, o := range out {
		if o.To != "N2" {
			t.Errorf("message to unexpected port %s", o.To)
		}
		switch {
		case o.Msg.Kind == MsgUnsubscribe && o.Msg.SubID == "big":
			sawUnsub = true
		case o.Msg.Kind == MsgSubscribe && o.Msg.SubID == "small":
			sawLateSub = true
		}
	}
	if !sawUnsub || !sawLateSub {
		t.Errorf("out = %+v, want unsubscribe(big) and subscribe(small)", out)
	}
	if b.Metrics().Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", b.Metrics().Promotions)
	}
}

func TestHandleErrors(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	for _, k := range []MsgKind{MsgNotify, MsgNotifyBatch} {
		if _, err := b.Handle("x", Message{Kind: k}); err == nil {
			t.Errorf("%v accepted by broker", k)
		}
	}
	if _, err := b.Handle("x", Message{Kind: MsgSubscribe}); err == nil {
		t.Error("subscribe without id accepted")
	}
	if _, err := b.Handle("x", Message{Kind: MsgPublish}); err == nil {
		t.Error("publish without id accepted")
	}
}

// TestRejectedSubscribeLeavesNoTrace: a subscription the broker rejects
// — no SubID, an unsatisfiable box, a box without attributes — must not
// reach the routing state, whether it arrives alone or in a batch
// behind a valid item, and whether or not a neighbor table would have
// seen it. A leftover would be backfilled into every later neighbor
// table, whose admission then fails, so no further link could form.
func TestRejectedSubscribeLeavesNoTrace(t *testing.T) {
	bad := map[string]BatchSub{
		"no-id":         {SubID: "", Sub: box(0, 1, 0, 1)},
		"unsatisfiable": {SubID: "bad", Sub: box(5, 1, 0, 1)},
		"no-attributes": {SubID: "bad", Sub: subscription.New()},
	}
	ids := []string{"", "bad", "good", "live", "from-n1"}
	for _, neighbor := range []bool{false, true} {
		for what, it := range bad {
			for _, kind := range []MsgKind{MsgSubscribe, MsgSubscribeBatch} {
				t.Run(fmt.Sprintf("neighbor=%v/%s/%s", neighbor, kind, what), func(t *testing.T) {
					b := newBroker(t, store.PolicyPairwise)
					b.AttachClient("C")
					if _, err := b.Handle("C", Message{Kind: MsgSubscribe, SubID: "live", Sub: box(0, 10, 0, 10)}); err != nil {
						t.Fatal(err)
					}
					if neighbor {
						if err := b.ConnectNeighbor("N1"); err != nil {
							t.Fatal(err)
						}
						if _, err := b.Handle("N1", Message{Kind: MsgSubscribe, SubID: "from-n1", Sub: box(20, 30, 20, 30)}); err != nil {
							t.Fatal(err)
						}
					}
					msg := Message{Kind: kind, SubID: it.SubID, Sub: it.Sub}
					if kind == MsgSubscribeBatch {
						msg = Message{Kind: kind, Subs: []BatchSub{{SubID: "good", Sub: box(40, 50, 40, 50)}, it}}
					}
					before := observe(b, ids)
					if _, err := b.Handle("C", msg); err == nil {
						t.Fatalf("%v of %+v accepted", kind, it)
					}
					if after := observe(b, ids); !reflect.DeepEqual(after, before) {
						t.Fatalf("rejection changed the broker:\nbefore %+v\nafter  %+v", before, after)
					}
					if err := b.ConnectNeighbor("N2"); err != nil {
						t.Fatalf("a later link failed: %v", err)
					}
				})
			}
		}
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgSubscribe:   "subscribe",
		MsgUnsubscribe: "unsubscribe",
		MsgPublish:     "publish",
		MsgNotify:      "notify",
		MsgNotifyBatch: "notify-batch",
		MsgKind(15):    "unknown",
		MsgKind(42):    "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestPublishItreeMatchesLinearReference cross-checks the indexed
// publish path against the linear scan it replaced:
// for random churn and random publications, handlePublish must emit
// exactly the notifications and forwards a direct scan of the
// reverse-path tables predicts.
func TestPublishItreeMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	b := newBroker(t, store.PolicyNone) // flood: every sub reaches every table
	for _, n := range []string{"n1", "n2"} {
		if err := b.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	b.AttachClient("c1")
	b.AttachClient("c2")
	ports := []string{"n1", "n2", "c1", "c2"}

	randomBox := func() subscription.Subscription {
		lo1, lo2 := rng.Int64N(80), rng.Int64N(80)
		return box(lo1, lo1+rng.Int64N(100-lo1), lo2, lo2+rng.Int64N(100-lo2))
	}
	var live []string
	for step := 0; step < 300; step++ {
		switch op := rng.IntN(10); {
		case op < 4: // subscribe from a random port
			subID := fmt.Sprintf("s%d", step)
			from := ports[rng.IntN(len(ports))]
			if _, err := b.Handle(from, Message{Kind: MsgSubscribe, SubID: subID, Sub: randomBox()}); err != nil {
				t.Fatal(err)
			}
			live = append(live, subID)
		case op < 5 && len(live) > 0: // unsubscribe via its source port
			i := rng.IntN(len(live))
			subID := live[i]
			live = append(live[:i], live[i+1:]...)
			src := b.routes[subID].src
			if _, err := b.Handle(src, Message{Kind: MsgUnsubscribe, SubID: subID}); err != nil {
				t.Fatal(err)
			}
		default: // publish and cross-check
			from := ports[rng.IntN(len(ports))]
			pub := subscription.NewPublication(rng.Int64N(101), rng.Int64N(101))

			wantNotify := map[string]bool{} // "port/subID"
			wantForward := map[string]bool{}
			for port, p := range b.paths {
				if port == from {
					continue
				}
				for subID, r := range p.routes {
					if !r.sub.Matches(pub) {
						continue
					}
					if b.clients.has(port) {
						wantNotify[port+"/"+subID] = true
					} else if b.neighbors.has(port) {
						wantForward[port] = true
					}
				}
			}
			out, err := b.Handle(from, Message{Kind: MsgPublish, PubID: fmt.Sprintf("p%d", step), Pub: pub})
			if err != nil {
				t.Fatal(err)
			}
			gotNotify := map[string]bool{}
			gotForward := map[string]bool{}
			batches := map[string]bool{} // one notify-batch per client
			for _, o := range out {
				switch o.Msg.Kind {
				case MsgNotifyBatch:
					if batches[o.To] || !slices.IsSorted(o.Msg.SubIDs) {
						t.Fatalf("step %d: second or unsorted notify-batch to %s: %v", step, o.To, o.Msg.SubIDs)
					}
					batches[o.To] = true
					for _, subID := range o.Msg.SubIDs {
						gotNotify[o.To+"/"+subID] = true
					}
				case MsgPublish:
					gotForward[o.To] = true
				default:
					t.Fatalf("unexpected outbound kind %v", o.Msg.Kind)
				}
			}
			if !maps.Equal(gotNotify, wantNotify) {
				t.Fatalf("step %d: notifications %v, reference %v", step, gotNotify, wantNotify)
			}
			if !maps.Equal(gotForward, wantForward) {
				t.Fatalf("step %d: forwards %v, reference %v", step, gotForward, wantForward)
			}
		}
	}
}

// TestMatchFilterCounts: with no churn after the first publication
// every subscription sits in the matcher's base, so the filter's hits
// are exactly the notifications, and each was a candidate first.
func TestMatchFilterCounts(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	b.AttachClient("S")
	b.AttachClient("P")
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 200; i++ {
		lo1, lo2 := rng.Int64N(90), rng.Int64N(90)
		if _, err := b.Handle("S", Message{Kind: MsgSubscribe, SubID: fmt.Sprintf("s%d", i), Sub: box(lo1, lo1+10, lo2, lo2+10)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		pub := subscription.NewPublication(rng.Int64N(101), rng.Int64N(101))
		if _, err := b.Handle("P", Message{Kind: MsgPublish, PubID: fmt.Sprintf("p%d", i), Pub: pub}); err != nil {
			t.Fatal(err)
		}
	}
	c, h := b.MatchFilterCounts()
	if n := uint64(b.Metrics().Notifications); h != n || c < h || n == 0 {
		t.Fatalf("MatchFilterCounts = %d candidates, %d hits; %d notifications", c, h, n)
	}
}

// TestDupAnnouncementCreatesReversePath pins the cycle-gradient fix:
// when a subscription already known via one port is announced again
// over another (the inevitable duplicate on any cyclic overlay), the
// announcing port must join the reverse-path set — it leads to a
// broker that suppressed covered subscriptions behind this
// announcement, and publications that never forward toward it are
// silently lost there. The cancellation paths must retire exactly the
// registrations the announcements created.
func TestDupAnnouncementCreatesReversePath(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	for _, n := range []string{"X", "Y"} {
		if err := b.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	w := box(0, 100, 0, 100)
	sub := func(from string) {
		if _, err := b.Handle(from, Message{Kind: MsgSubscribe, SubID: "w", Sub: w}); err != nil {
			t.Fatal(err)
		}
	}
	pubTargets := func(pubID string) map[string]bool {
		outs, err := b.Handle("X", Message{Kind: MsgPublish, PubID: pubID,
			Pub: subscription.NewPublication(50, 50)})
		if err != nil {
			t.Fatal(err)
		}
		to := make(map[string]bool)
		for _, o := range outs {
			if o.Msg.Kind == MsgPublish {
				to[o.To] = true
			}
		}
		return to
	}

	sub("X") // first arrival: reverse path toward X
	if to := pubTargets("p1"); to["Y"] {
		t.Fatal("publication forwarded to Y before Y announced anything")
	}
	sub("Y") // cycle duplicate: dropped as a re-flood, but Y is a valid path now
	if to := pubTargets("p2"); !to["Y"] {
		t.Error("publication not forwarded to the duplicate announcer Y — covered subscriptions behind Y are unreachable")
	}
	// Y retires its copy: the gradient toward Y goes with it, while the
	// owning path via X keeps the subscription alive.
	if _, err := b.Handle("Y", Message{Kind: MsgUnsubscribe, SubID: "w"}); err != nil {
		t.Fatal(err)
	}
	if to := pubTargets("p3"); to["Y"] {
		t.Error("publication still forwarded to Y after Y cancelled its copy")
	}
	if _, ok := b.KnowsSubscription("w"); !ok {
		t.Fatal("non-owner cancellation removed the subscription entirely")
	}
	// The owner cancels: everything goes.
	if _, err := b.Handle("X", Message{Kind: MsgUnsubscribe, SubID: "w"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.KnowsSubscription("w"); ok {
		t.Fatal("owner cancellation left the subscription behind")
	}
	if to := pubTargets("p4"); len(to) != 0 {
		t.Errorf("publication forwarded to %v after full cancellation", to)
	}
}

// TestChurnNotificationsMatchBruteForce: 100 churn operations
// interleaved with 1,000 publications on a 600-subscription client
// port, which the matcher absorbs in place. Every publication's
// notifications must name exactly the port's live subscriptions that a
// brute-force scan matches.
func TestChurnNotificationsMatchBruteForce(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	b.AttachClient("S")
	b.AttachClient("P")
	rng := rand.New(rand.NewPCG(7, 8))
	var bf match.BruteForce
	subscribe := func(i int) {
		lo1, lo2 := rng.Int64N(90), rng.Int64N(90)
		msg := Message{Kind: MsgSubscribe, SubID: fmt.Sprintf("s%d", i), Sub: box(lo1, lo1+10, lo2, lo2+10)}
		if _, err := b.Handle("S", msg); err != nil {
			t.Fatal(err)
		}
		bf.Add(match.ID(i), msg.Sub)
	}
	const subs, pubs, churn = 600, 1000, 100
	for i := 0; i < subs; i++ {
		subscribe(i)
	}
	oldest, next := 0, subs
	for i := 0; i < pubs; i++ {
		if i%(pubs/churn) == 0 {
			if i%(2*pubs/churn) == 0 {
				if _, err := b.Handle("S", Message{Kind: MsgUnsubscribe, SubID: fmt.Sprintf("s%d", oldest)}); err != nil {
					t.Fatal(err)
				}
				bf.Remove(match.ID(oldest))
				oldest++
			} else {
				subscribe(next)
				next++
			}
		}
		pub := subscription.NewPublication(rng.Int64N(101), rng.Int64N(101))
		out, err := b.Handle("P", Message{Kind: MsgPublish, PubID: fmt.Sprintf("p%d", i), Pub: pub})
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for _, id := range bf.Match(pub) {
			want = append(want, fmt.Sprintf("s%d", id))
		}
		slices.Sort(want)
		for _, o := range out {
			if o.To == "S" && o.Msg.Kind == MsgNotifyBatch {
				got = append(got, o.Msg.SubIDs...)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("publication %d %v: notified %v, brute force %v", i, pub.Values, got, want)
		}
	}
}

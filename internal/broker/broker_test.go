package broker

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"

	"probsum/internal/interval"
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
		case o.To == "C1" && o.Msg.Kind == MsgNotify:
			toC1++
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
	if _, err := b.Handle("x", Message{Kind: MsgNotify}); err == nil {
		t.Error("notify accepted by broker")
	}
	if _, err := b.Handle("x", Message{Kind: MsgSubscribe}); err == nil {
		t.Error("subscribe without id accepted")
	}
	if _, err := b.Handle("x", Message{Kind: MsgPublish}); err == nil {
		t.Error("publish without id accepted")
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgSubscribe:   "subscribe",
		MsgUnsubscribe: "unsubscribe",
		MsgPublish:     "publish",
		MsgNotify:      "notify",
		MsgKind(42):    "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestPublishItreeMatchesLinearReference cross-checks the
// interval-tree publish path against the linear scan it replaced:
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
			src := b.source[subID]
			if _, err := b.Handle(src, Message{Kind: MsgUnsubscribe, SubID: subID}); err != nil {
				t.Fatal(err)
			}
		default: // publish and cross-check
			from := ports[rng.IntN(len(ports))]
			pub := subscription.NewPublication(rng.Int64N(101), rng.Int64N(101))

			wantNotify := map[string]bool{} // "port/subID"
			wantForward := map[string]bool{}
			for port, subs := range b.in {
				if port == from {
					continue
				}
				for subID, sub := range subs {
					if !sub.Matches(pub) {
						continue
					}
					if b.clients[port] {
						wantNotify[port+"/"+subID] = true
					} else if b.neighbors[port] {
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
			for _, o := range out {
				switch o.Msg.Kind {
				case MsgNotify:
					gotNotify[o.To+"/"+o.Msg.SubID] = true
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

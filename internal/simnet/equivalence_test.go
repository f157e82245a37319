package simnet

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// randomScript is a reproducible client workload: subscriptions, some
// unsubscriptions, then publications.
type randomScript struct {
	subs   map[string]subscription.Subscription // subID -> sub (by client)
	subAt  map[string]string                    // subID -> client
	cancel []string
	pubs   []subscription.Publication
}

func makeScript(seed uint64, clients []string, nSubs, nCancel, nPubs int) randomScript {
	r := rand.New(rand.NewPCG(seed, seed^0xf00d))
	sc := randomScript{
		subs:  make(map[string]subscription.Subscription),
		subAt: make(map[string]string),
	}
	ids := make([]string, 0, nSubs)
	for i := 0; i < nSubs; i++ {
		id := fmt.Sprintf("s%d", i)
		lo1, lo2 := r.Int64N(60), r.Int64N(60)
		sub := subscription.New(
			interval.New(lo1, lo1+r.Int64N(100-lo1)),
			interval.New(lo2, lo2+r.Int64N(100-lo2)),
		)
		sc.subs[id] = sub
		sc.subAt[id] = clients[r.IntN(len(clients))]
		ids = append(ids, id)
	}
	for i := 0; i < nCancel && i < len(ids); i++ {
		sc.cancel = append(sc.cancel, ids[r.IntN(len(ids))])
	}
	for i := 0; i < nPubs; i++ {
		sc.pubs = append(sc.pubs, subscription.NewPublication(r.Int64N(101), r.Int64N(101)))
	}
	return sc
}

// runScript executes the script on a fresh random topology under the
// given policy and returns, per client, the set of (pubID, subID)
// deliveries.
func runScript(t *testing.T, topoSeed uint64, policy store.Policy, sc randomScript, clients []string) map[string]map[string]bool {
	t.Helper()
	n := New()
	if err := BuildRandomConnected(n, 6, 2, topoSeed, policy,
		broker.WithSeed(topoSeed|1),
		broker.WithTableOptions(subsume.WithTableChecker(
			subsume.WithErrorProbability(1e-12),
			subsume.WithMaxTrials(50_000)))); err != nil {
		t.Fatal(err)
	}
	brokers := n.BrokerIDs()
	for i, c := range clients {
		if err := n.AttachClient(c, brokers[i%len(brokers)]); err != nil {
			t.Fatal(err)
		}
	}
	n.AttachClient("publisher", brokers[len(brokers)-1])

	// Subscriptions in a deterministic order.
	for i := 0; ; i++ {
		id := fmt.Sprintf("s%d", i)
		sub, ok := sc.subs[id]
		if !ok {
			break
		}
		if err := n.ClientSubscribe(sc.subAt[id], id, sub); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range sc.cancel {
		if err := n.ClientUnsubscribe(sc.subAt[id], id); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range sc.pubs {
		if err := n.ClientPublish("publisher", fmt.Sprintf("p%d", i), p); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}

	out := make(map[string]map[string]bool, len(clients))
	for _, c := range clients {
		set := make(map[string]bool)
		for _, m := range n.Delivered(c) {
			for _, subID := range m.SubIDs {
				set[m.PubID+"|"+subID] = true
			}
		}
		out[c] = set
	}
	return out
}

// TestPolicyDeliveryEquivalence checks the central end-to-end
// guarantee: pairwise covering is a pure traffic optimization
// (delivers exactly what flooding delivers), and group covering with a
// tiny δ delivers the same on these workloads — any difference would
// be either a routing bug or a (vanishingly unlikely) false cover.
func TestPolicyDeliveryEquivalence(t *testing.T) {
	clients := []string{"c0", "c1", "c2"}
	for seed := uint64(1); seed <= 8; seed++ {
		sc := makeScript(seed, clients, 20, 4, 25)
		flood := runScript(t, seed, store.PolicyNone, sc, clients)
		pair := runScript(t, seed, store.PolicyPairwise, sc, clients)
		group := runScript(t, seed, store.PolicyGroup, sc, clients)
		for _, c := range clients {
			if len(pair[c]) != len(flood[c]) {
				t.Errorf("seed %d client %s: pairwise delivered %d, flood %d",
					seed, c, len(pair[c]), len(flood[c]))
			}
			for key := range flood[c] {
				if !pair[c][key] {
					t.Errorf("seed %d client %s: pairwise lost %s", seed, c, key)
				}
				if !group[c][key] {
					t.Errorf("seed %d client %s: group lost %s", seed, c, key)
				}
			}
			// No spurious deliveries either.
			for key := range group[c] {
				if !flood[c][key] {
					t.Errorf("seed %d client %s: group delivered spurious %s", seed, c, key)
				}
			}
		}
	}
}

// TestGroupPolicySavesTraffic verifies the reason the probabilistic
// policy exists: it forwards no more subscription messages than
// pairwise, which forwards no more than flooding.
func TestGroupPolicySavesTraffic(t *testing.T) {
	clients := []string{"c0", "c1", "c2"}
	totals := map[store.Policy]int{}
	for seed := uint64(1); seed <= 8; seed++ {
		sc := makeScript(seed, clients, 25, 0, 1)
		for _, policy := range []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup} {
			n := New()
			if err := BuildRandomConnected(n, 6, 2, seed, policy,
				broker.WithSeed(seed|1),
				broker.WithTableOptions(subsume.WithTableChecker(
					subsume.WithErrorProbability(1e-12),
					subsume.WithMaxTrials(50_000)))); err != nil {
				t.Fatal(err)
			}
			brokers := n.BrokerIDs()
			for i, c := range clients {
				if err := n.AttachClient(c, brokers[i%len(brokers)]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; ; i++ {
				id := fmt.Sprintf("s%d", i)
				sub, ok := sc.subs[id]
				if !ok {
					break
				}
				if err := n.ClientSubscribe(sc.subAt[id], id, sub); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := n.Run(); err != nil {
				t.Fatal(err)
			}
			totals[policy] += n.TotalMetrics().SubsForwarded
		}
	}
	if !(totals[store.PolicyGroup] <= totals[store.PolicyPairwise] &&
		totals[store.PolicyPairwise] <= totals[store.PolicyNone]) {
		t.Errorf("forwarded totals: flood=%d pairwise=%d group=%d; want flood >= pairwise >= group",
			totals[store.PolicyNone], totals[store.PolicyPairwise], totals[store.PolicyGroup])
	}
	if totals[store.PolicyGroup] == totals[store.PolicyNone] {
		t.Error("coverage policies saved nothing on an overlapping workload")
	}
}

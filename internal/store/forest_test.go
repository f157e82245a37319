package store

import (
	"math/rand/v2"
	"slices"
	"testing"

	"probsum/internal/workload"
)

// TestForestInvariant drives a seeded narrow-mix churn of Subscribe,
// SubscribeBatch, Unsubscribe and UnsubscribeBatch under pairwise and
// group, and checks the one-level forest after every step (see
// checkForest). Each admission then overwrites the coverers it
// returned, so a node list aliasing them fails the next check.
func TestForestInvariant(t *testing.T) {
	for _, policy := range []Policy{PolicyPairwise, PolicyGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			st, err := New(policy)
			if err != nil {
				t.Fatal(err)
			}
			subs := subscribeStream(t, 71, 72, 3000, workload.NarrowComparisonConfig(6))
			rng := rand.New(rand.NewPCG(73, 74))
			var live []ID
			next := 0
			promotions := 0
			for step := 0; next < len(subs); step++ {
				switch op := rng.IntN(8); {
				case op < 3 || len(live) < 20:
					id := ID(next)
					res, err := st.Subscribe(id, subs[next])
					if err != nil {
						t.Fatal(err)
					}
					scribble(res)
					live = append(live, id)
					next++
				case op < 5:
					k := min(1+rng.IntN(30), len(subs)-next)
					ids := make([]ID, k)
					for i := range ids {
						ids[i] = ID(next + i)
					}
					res, err := st.SubscribeBatch(ids, subs[next:next+k])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range res {
						scribble(r)
					}
					live = append(live, ids...)
					next += k
				case op < 7:
					// A covered pick retires its first coverer instead,
					// so roots with children leave often.
					id := live[rng.IntN(len(live))]
					if c := st.Coverers(id); c != nil {
						id = c[0]
					}
					res, err := st.Unsubscribe(id)
					if err != nil {
						t.Fatal(err)
					}
					promotions += len(res.Promoted)
					live = slices.DeleteFunc(live, func(l ID) bool { return l == id })
				default:
					k := 1 + rng.IntN(10)
					var ids []ID
					for range k {
						i := rng.IntN(len(live))
						ids = append(ids, live[i])
						live = slices.Delete(live, i, i+1)
					}
					res, err := st.UnsubscribeBatch(ids)
					if err != nil {
						t.Fatal(err)
					}
					promotions += len(res.Promoted)
				}
				checkForest(t, st, step)
			}
			t.Logf("%d live, %d active, %d promotions, stats %+v", st.Len(), st.ActiveLen(), promotions, st.CheckerStats())
			if st.CoveredLen() == 0 || promotions == 0 {
				t.Fatalf("%d covered, %d promotions: the churn does not exercise the forest", st.CoveredLen(), promotions)
			}
		})
	}
}

// scribble overwrites the coverers an admission returned with an ID
// no node has.
func scribble(res SubscribeResult) {
	for i := range res.Coverers {
		res.Coverers[i] = -1
	}
}

// checkForest checks every node against the one-level forest: a
// covered node's links are ascending and distinct, and each names a
// present, active node that lists it back; an active node's links are
// ascending and distinct, and each names a present, covered node;
// Coverers returns a covered node's links and nil for an active one;
// Get's status agrees with the slot, and an active node sits in its
// count's index at its slot.
func checkForest(t *testing.T, st *Store, step int) {
	t.Helper()
	active := 0
	for id, n := range st.nodes {
		if !slices.IsSorted(n.links) || len(slices.Compact(slices.Clone(n.links))) != len(n.links) {
			t.Fatalf("step %d: node %d links %v are not ascending and distinct", step, id, n.links)
		}
		_, status, _ := st.Get(id)
		covered := n.slot < 0
		if covered != (status == StatusCovered) {
			t.Fatalf("step %d: node %d has slot %d but status %v", step, id, n.slot, status)
		}
		for _, l := range n.links {
			m := st.nodes[l]
			if m == nil {
				t.Fatalf("step %d: node %d links to absent %d", step, id, l)
			}
			if covered && (m.slot < 0 || !slices.Contains(m.links, id)) {
				t.Fatalf("step %d: covered node %d names %d, which is not an active node listing it back", step, id, l)
			}
			if !covered && m.slot >= 0 {
				t.Fatalf("step %d: active node %d lists active %d as a child", step, id, l)
			}
		}
		coverers := st.Coverers(id)
		if covered {
			if len(n.links) == 0 || !slices.Equal(coverers, n.links) {
				t.Fatalf("step %d: covered node %d: Coverers %v, links %v", step, id, coverers, n.links)
			}
			continue
		}
		active++
		if coverers != nil {
			t.Fatalf("step %d: active node %d has Coverers %v", step, id, coverers)
		}
		if ix := st.active[int(n.m)]; ix == nil || ix.Row(n.slot) != n {
			t.Fatalf("step %d: active node %d is not at its slot %d", step, id, n.slot)
		}
	}
	if active != st.ActiveLen() {
		t.Fatalf("step %d: %d nodes hold a slot, the index holds %d", step, active, st.ActiveLen())
	}
}

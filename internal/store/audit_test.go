package store

import (
	"math/rand/v2"
	"testing"

	"probsum/internal/core"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// admitNarrowMix admits 3000 subscriptions of the narrow comparison
// mix (6 attributes over [0, 9999]) at δ = 1e-6 and re-verifies every
// covered decision exactly against the active set it was taken on.
func admitNarrowMix(t *testing.T, residual bool) (st *Store, covered, falseCovers int) {
	t.Helper()
	stream, err := workload.NewComparisonStream(rand.New(rand.NewPCG(1, 2)), workload.NarrowComparisonConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	checker, err := core.NewChecker(core.WithErrorProbability(1e-6), core.WithSeed(1, 2), core.WithResidual(residual))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = New(PolicyGroup, WithChecker(checker)); err != nil {
		t.Fatal(err)
	}
	for id := ID(1); id <= 3000; id++ {
		s := stream.Next()
		res, err := st.Subscribe(id, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCovered {
			continue
		}
		covered++
		// A covered admission leaves the active set as it was.
		ok, witness, err := core.ExactCover(s, st.ActiveSubscriptions())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			falseCovers++
			if residual {
				t.Errorf("id %d admitted covered (%v) but %v lies outside every active subscription",
					id, res.Checker.Reason, witness)
			}
		}
		if res.Checker.Reason != core.ReasonResidualCover {
			continue
		}
		// The recorded coverers are the residual stage's witness: they
		// cover s with no help from the rest of the active set.
		named := make([]subscription.Subscription, len(res.Coverers))
		for i, c := range res.Coverers {
			named[i] = st.nodes[c].sub
		}
		if ok, _, _ := core.ExactCover(s, named); !ok {
			t.Errorf("id %d: its %d recorded coverers do not cover it", id, len(named))
		}
	}
	return st, covered, falseCovers
}

// TestNarrowMixHasNoFalseCovers audits the contract on the population
// the system benchmark admits: with the residual stage every covered
// decision is right, where the paper's pipeline — whose trial bound d
// is around 10^15 there, far over the cap — silently drops slivers.
func TestNarrowMixHasNoFalseCovers(t *testing.T) {
	st, covered, falseCovers := admitNarrowMix(t, true)
	stats := st.CheckerStats()
	t.Logf("residual stage on: %d of 3000 covered, %d false; %d calls over %d rows, decisions %v, %d trials, %d capped",
		covered, falseCovers, stats.Calls, stats.CandidateRows, stats.Decisions, stats.Trials, stats.Capped)
	if covered < 300 {
		t.Fatalf("only %d covered admissions; the mix lost its density", covered)
	}
	if falseCovers != 0 {
		t.Fatalf("%d false covers with the residual stage on", falseCovers)
	}
	if stats.Calls != 3000 || stats.Decisions[core.ReasonResidualCover] == 0 {
		t.Fatalf("accounting: %d calls, decisions %v", stats.Calls, stats.Decisions)
	}
	var decided uint64
	for _, n := range stats.Decisions {
		decided += n
	}
	if decided != stats.Calls {
		t.Fatalf("decisions by reason sum to %d, calls = %d", decided, stats.Calls)
	}

	if testing.Short() {
		return
	}
	st, covered, falseCovers = admitNarrowMix(t, false)
	stats = st.CheckerStats()
	t.Logf("paper pipeline:    %d of 3000 covered, %d false; decisions %v, %d trials, %d capped",
		covered, falseCovers, stats.Decisions, stats.Trials, stats.Capped)
}

// TestUnsubscribeRechecksOnlyNamedChildren: a covered node records the
// few actives the residual stage used, so retiring an active root
// re-runs the checker for exactly the nodes naming it — not for every
// node it happened to overlap.
func TestUnsubscribeRechecksOnlyNamedChildren(t *testing.T) {
	st, covered, _ := admitNarrowMix(t, true)
	links := 0
	for _, n := range st.nodes {
		links += len(n.coverers)
	}
	mean := float64(links) / float64(covered)
	t.Logf("%d covered nodes name %.1f coverers on average", covered, mean)
	if mean > 20 {
		t.Fatalf("mean coverer set %.1f: covered nodes are linked to far more than their witness", mean)
	}

	retired, rechecked := 0, 0
	for _, id := range st.ActiveIDs() {
		named := 0
		for _, n := range st.nodes {
			if _, ok := n.coverers[id]; ok {
				named++
			}
		}
		if named == 0 {
			continue
		}
		before := st.CheckerStats()
		if _, err := st.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		after := st.CheckerStats()
		if got := int(after.RecheckCalls - before.RecheckCalls); got != named {
			t.Fatalf("retiring %d: %d re-checks, but %d nodes named it as coverer", id, got, named)
		}
		if after.Calls-before.Calls != after.RecheckCalls-before.RecheckCalls || after.Unsubscribes != before.Unsubscribes+1 {
			t.Fatalf("retiring %d: accounting moved from %+v to %+v", id, before, after)
		}
		rechecked += named
		if retired++; retired == 50 {
			break
		}
	}
	if retired < 10 {
		t.Fatalf("only %d active roots had children", retired)
	}
	t.Logf("retired %d roots: %.1f re-checks per removal", retired, float64(rechecked)/float64(retired))
}

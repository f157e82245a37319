package store

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
	"weak"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

func box(lo1, hi1, lo2, hi2 int64) subscription.Subscription {
	return subscription.New(interval.New(lo1, hi1), interval.New(lo2, hi2))
}

func groupStore(t *testing.T) *Store {
	t.Helper()
	checker, err := core.NewChecker(core.WithSeed(42, 43), core.WithErrorProbability(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(PolicyGroup, WithChecker(checker))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPolicyNoneKeepsEverything(t *testing.T) {
	st, err := New(PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		res, err := st.Subscribe(ID(i), box(0, 10, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusActive {
			t.Fatalf("sub %d: status %v", i, res.Status)
		}
	}
	if st.ActiveLen() != 5 || st.CoveredLen() != 0 {
		t.Errorf("active=%d covered=%d", st.ActiveLen(), st.CoveredLen())
	}
}

func TestPolicyPairwise(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := st.Subscribe(1, box(0, 10, 0, 10)); res.Status != StatusActive {
		t.Fatal("first subscription must be active")
	}
	res, err := st.Subscribe(2, box(2, 8, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCovered || len(res.Coverers) != 1 || res.Coverers[0] != 1 {
		t.Errorf("covered result = %+v", res)
	}
	// Union-covered but not single-covered subscription stays active
	// under the pairwise policy.
	if res, _ := st.Subscribe(3, box(5, 20, 0, 10)); res.Status != StatusActive {
		t.Error("partially overlapping subscription must stay active")
	}
	if res, _ := st.Subscribe(4, box(1, 15, 1, 9)); res.Status != StatusActive {
		t.Error("union-covered subscription must stay active under pairwise")
	}
}

func TestPolicyGroupDetectsUnionCover(t *testing.T) {
	st := groupStore(t)
	// The paper's Table 3 configuration.
	if res, _ := st.Subscribe(1, box(820, 850, 1001, 1007)); res.Status != StatusActive {
		t.Fatal("s1 must be active")
	}
	if res, _ := st.Subscribe(2, box(840, 880, 1002, 1009)); res.Status != StatusActive {
		t.Fatal("s2 must be active")
	}
	res, err := st.Subscribe(3, box(830, 870, 1003, 1006))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCovered {
		t.Fatalf("s must be group-covered, got %v (checker: %+v)", res.Status, res.Checker)
	}
	if len(res.Coverers) == 0 || !slices.IsSorted(res.Coverers) {
		t.Errorf("group cover must record coverers in ID order, got %v", res.Coverers)
	}
	// The checker's row positions index store scratch; Coverers names
	// the rows instead.
	if res.Checker.CoveringRow != -1 || res.Checker.ReducedSet != nil {
		t.Errorf("checker positions leaked: CoveringRow %d, ReducedSet %v", res.Checker.CoveringRow, res.Checker.ReducedSet)
	}
	if st.ActiveLen() != 2 || st.CoveredLen() != 1 {
		t.Errorf("active=%d covered=%d", st.ActiveLen(), st.CoveredLen())
	}
}

func TestSubscribeErrors(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Subscribe(1, box(0, 10, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Subscribe(1, box(0, 5, 0, 5)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id error = %v", err)
	}
	empty := subscription.New(interval.Empty(), interval.New(0, 1))
	if _, err := st.Subscribe(2, empty); !errors.Is(err, core.ErrUnsatisfiable) {
		t.Errorf("unsatisfiable error = %v", err)
	}
	if _, err := New(Policy(0)); err == nil {
		t.Error("invalid policy accepted")
	}
}

// TestSubscribeSchemaMismatch: attribute counts partition a group
// store. A store fed subscriptions of two counts, with the candidate
// index on or off, decides every arrival and every removal as a
// single-count store fed only that count would, and holds the union of
// their active sets; a subscription without attributes is an error.
func TestSubscribeSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	subs := make([]subscription.Subscription, 160)
	for i := range subs {
		bounds := make([]interval.Interval, 2+rng.IntN(2))
		for a := range bounds {
			lo := rng.Int64N(80)
			bounds[a] = interval.New(lo, lo+1+rng.Int64N(40))
		}
		subs[i] = subscription.New(bounds...)
	}
	for _, pruning := range []bool{true, false} {
		mixed := groupStore(t)
		mixed.unpruned = !pruning
		single := map[int]*Store{2: groupStore(t), 3: groupStore(t)}
		covered := map[int]int{}
		for i, s := range subs {
			got, err := mixed.Subscribe(ID(i), s)
			want, werr := single[s.Len()].Subscribe(ID(i), s)
			if err != nil || werr != nil {
				t.Fatalf("pruning %v: subscribe %d: mixed %v, single-count %v", pruning, i, err, werr)
			}
			if got.Status != want.Status || !slices.Equal(got.Coverers, want.Coverers) {
				t.Fatalf("pruning %v: subscribe %d (%d attributes): mixed %v %v, single-count %v %v",
					pruning, i, s.Len(), got.Status, got.Coverers, want.Status, want.Coverers)
			}
			if got.Status == StatusCovered {
				covered[s.Len()]++
			}
		}
		if covered[2] == 0 || covered[3] == 0 {
			t.Fatalf("covered arrivals by attribute count = %v; the stream must cover some of each", covered)
		}
		for i := 0; i < len(subs); i += 3 {
			got, err := mixed.Unsubscribe(ID(i))
			want, werr := single[subs[i].Len()].Unsubscribe(ID(i))
			if err != nil || werr != nil || !slices.Equal(got.Promoted, want.Promoted) {
				t.Fatalf("pruning %v: unsubscribe %d: mixed %v %v, single-count %v %v",
					pruning, i, got.Promoted, err, want.Promoted, werr)
			}
		}
		want := append(single[2].ActiveIDs(), single[3].ActiveIDs()...)
		slices.Sort(want)
		if got := mixed.ActiveIDs(); !slices.Equal(got, want) {
			t.Errorf("pruning %v: active %v, want the single-count stores' union %v", pruning, got, want)
		}
		if _, err := mixed.Subscribe(ID(len(subs)), subscription.New()); err == nil {
			t.Errorf("pruning %v: a subscription without attributes was admitted", pruning)
		}
		if n := single[2].Len() + single[3].Len(); mixed.Len() != n {
			t.Errorf("pruning %v: %d subscriptions stored, want %d", pruning, mixed.Len(), n)
		}
	}
}

func TestUnsubscribePromotesCovered(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	st.Subscribe(1, box(0, 10, 0, 10))
	res, _ := st.Subscribe(2, box(2, 8, 2, 8))
	if res.Status != StatusCovered {
		t.Fatal("setup: 2 must be covered by 1")
	}
	un, err := st.Unsubscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	if !un.Existed || !un.WasActive {
		t.Fatalf("unsubscribe result = %+v", un)
	}
	if len(un.Promoted) != 1 || un.Promoted[0] != 2 {
		t.Fatalf("promoted = %v, want [2]", un.Promoted)
	}
	if _, status, ok := st.Get(2); !ok || status != StatusActive {
		t.Errorf("subscription 2 should now be active")
	}
}

func TestUnsubscribeKeepsCoveredWhenStillCovered(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	st.Subscribe(1, box(0, 10, 0, 10))
	st.Subscribe(2, box(0, 12, 0, 9))          // overlaps 1 but is not covered by it
	res, _ := st.Subscribe(3, box(2, 8, 2, 8)) // covered by 1 (first hit)
	if res.Status != StatusCovered {
		t.Fatal("setup: 3 must be covered")
	}
	un, err := st.Unsubscribe(res.Coverers[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(un.Promoted) != 0 {
		t.Errorf("3 is still covered by the remaining subscription; promoted=%v", un.Promoted)
	}
	if _, status, _ := st.Get(3); status != StatusCovered {
		t.Error("3 must remain covered")
	}
}

func TestUnsubscribeUnknownID(t *testing.T) {
	st, _ := New(PolicyNone)
	res, err := st.Unsubscribe(99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Existed {
		t.Error("unknown id reported as existing")
	}
}

func TestGroupUnsubscribePromotion(t *testing.T) {
	st := groupStore(t)
	st.Subscribe(1, box(820, 850, 1001, 1007))
	st.Subscribe(2, box(840, 880, 1002, 1009))
	res, _ := st.Subscribe(3, box(830, 870, 1003, 1006))
	if res.Status != StatusCovered {
		t.Fatal("setup: 3 must be group-covered")
	}
	// Removing either coverer breaks the union cover.
	un, err := st.Unsubscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(un.Promoted) != 1 || un.Promoted[0] != 3 {
		t.Fatalf("promoted = %v, want [3]", un.Promoted)
	}
}

// TestPairwiseMixedArity: a store holds one index per attribute count.
// An arrival is covered by the lowest-ID container of its own count —
// a box of another count never covers it — Match agrees with the
// literal Algorithm 5 for publications of either count, ActiveIDs is
// sorted across counts, and draining one count drops its index.
func TestPairwiseMixedArity(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	box3 := func(lo, hi int64) subscription.Subscription {
		return subscription.New(interval.New(lo, hi), interval.New(lo, hi), interval.New(lo, hi))
	}
	for _, c := range []struct {
		id   ID
		sub  subscription.Subscription
		want []ID
	}{
		{4, box3(60, 70), nil},
		{1, box(0, 100, 0, 100), nil},
		{2, box3(0, 100), nil},
		{9, box(0, 300, 0, 300), nil},
		{5, box(0, 50, 0, 50), []ID{1}},    // 9 contains it too
		{7, box3(0, 50), []ID{2}},          // 1 has a lower ID but two attributes
		{12, box3(62, 65), []ID{2}},        // 4 contains it too
		{10, box(10, 20, 10, 20), []ID{1}}, // as 5
		{13, box(400, 500, 0, 1), nil},
	} {
		res, err := st.Subscribe(c.id, c.sub)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Coverers, c.want) {
			t.Fatalf("subscribe %d: coverers %v, want %v", c.id, res.Coverers, c.want)
		}
	}
	if got := st.ActiveIDs(); !slices.Equal(got, []ID{1, 2, 4, 9, 13}) {
		t.Fatalf("ActiveIDs = %v, want [1 2 4 9 13]", got)
	}
	if len(st.active) != 2 {
		t.Fatalf("%d indexes for two attribute counts", len(st.active))
	}
	for _, c := range []struct {
		p    subscription.Publication
		want []ID
	}{
		{subscription.NewPublication(15, 15), []ID{1, 5, 9, 10}},
		{subscription.NewPublication(15, 15, 15), []ID{2, 7}},
		{subscription.NewPublication(63, 63, 63), []ID{2, 4, 12}},
		{subscription.NewPublication(450, 0), []ID{13}},
		{subscription.NewPublication(500, 0, 0), nil},
	} {
		if got, ref := st.Match(c.p), st.MatchTwoPhase(c.p); !slices.Equal(got, c.want) || !slices.Equal(ref, c.want) {
			t.Fatalf("Match(%v) = %v, MatchTwoPhase = %v, want %v", c.p, got, ref, c.want)
		}
	}
	// Draining the 2-attribute rows drops their index and leaves the
	// other count's as it was.
	for _, id := range []ID{1, 9, 13, 5, 10} {
		if _, err := st.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.active[2]; ok || len(st.active) != 1 {
		t.Fatalf("%d indexes left after draining the 2-attribute rows", len(st.active))
	}
	if got := st.ActiveIDs(); !slices.Equal(got, []ID{2, 4}) {
		t.Fatalf("ActiveIDs = %v, want [2 4]", got)
	}
}

func TestMatchTwoPhaseSemantics(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	st.Subscribe(1, box(0, 10, 0, 10))
	st.Subscribe(2, box(2, 8, 2, 8)) // covered by 1

	// Publication inside both: two-phase finds both.
	got := st.MatchTwoPhase(subscription.NewPublication(5, 5))
	if len(got) != 2 {
		t.Errorf("MatchTwoPhase = %v, want both ids", got)
	}
	// Publication inside 1 only.
	got = st.MatchTwoPhase(subscription.NewPublication(9, 9))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("MatchTwoPhase = %v, want [1]", got)
	}
	// Publication outside everything: covered set must not be scanned
	// (observable as empty result).
	got = st.MatchTwoPhase(subscription.NewPublication(20, 20))
	if len(got) != 0 {
		t.Errorf("MatchTwoPhase = %v, want empty", got)
	}
}

func TestMatchEqualsTwoPhase(t *testing.T) {
	// The forest-based Match must agree with the literal Algorithm 5
	// whenever coverage decisions are exact (pairwise policy).
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		st, err := New(PolicyPairwise)
		if err != nil {
			return false
		}
		for i := int64(1); i <= 25; i++ {
			lo1, lo2 := r.Int64N(20), r.Int64N(20)
			sub := box(lo1, lo1+r.Int64N(20), lo2, lo2+r.Int64N(20))
			if _, err := st.Subscribe(ID(i), sub); err != nil {
				return false
			}
			// Occasionally remove a random earlier subscription.
			if r.IntN(5) == 0 {
				if _, err := st.Unsubscribe(ID(r.Int64N(i) + 1)); err != nil {
					return false
				}
			}
		}
		for trial := 0; trial < 30; trial++ {
			p := subscription.NewPublication(r.Int64N(45), r.Int64N(45))
			a, b := st.Match(p), st.MatchTwoPhase(p)
			if len(a) != len(b) {
				t.Logf("mismatch %v vs %v", a, b)
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatchFindsAllStoredMatches(t *testing.T) {
	// With exact coverage decisions, Match must equal brute force over
	// all stored subscriptions.
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		st, err := New(PolicyPairwise)
		if err != nil {
			return false
		}
		subs := make(map[ID]subscription.Subscription)
		for i := int64(1); i <= 20; i++ {
			lo1, lo2 := r.Int64N(20), r.Int64N(20)
			sub := box(lo1, lo1+r.Int64N(20), lo2, lo2+r.Int64N(20))
			if _, err := st.Subscribe(ID(i), sub); err != nil {
				return false
			}
			subs[ID(i)] = sub
		}
		for trial := 0; trial < 20; trial++ {
			p := subscription.NewPublication(r.Int64N(45), r.Int64N(45))
			got := st.Match(p)
			want := make(map[ID]bool)
			for id, sub := range subs {
				if sub.Matches(p) {
					want[id] = true
				}
			}
			if len(got) != len(want) {
				return false
			}
			for _, id := range got {
				if !want[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPolicyAndStatusStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyNone: "flood", PolicyPairwise: "pairwise", PolicyGroup: "group",
		Policy(0): "unknown", Policy(9): "unknown",
	} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
		if err := p.Validate(); (err == nil) != (want != "unknown") {
			t.Errorf("Policy(%d).Validate() = %v", int(p), err)
		}
	}
	if StatusActive.String() != "active" || StatusCovered.String() != "covered" {
		t.Error("status strings wrong")
	}
}

func TestActiveAccessors(t *testing.T) {
	st, _ := New(PolicyPairwise)
	st.Subscribe(5, box(0, 5, 0, 5))
	st.Subscribe(3, box(10, 15, 10, 15))
	ids := st.ActiveIDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Errorf("ActiveIDs = %v, want sorted [3 5]", ids)
	}
	subs := st.ActiveSubscriptions()
	if len(subs) != 2 || !subs[0].Equal(box(10, 15, 10, 15)) {
		t.Errorf("ActiveSubscriptions misordered: %v", subs)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
}

// TestDeactivatedNodeUnreachable requires a freed slot to retain
// nothing: a node removed from an active index that lives on is
// collected once the store lets go of it.
func TestDeactivatedNodeUnreachable(t *testing.T) {
	st := groupStore(t)
	for id, s := range []subscription.Subscription{box(0, 10, 0, 10), box(20, 30, 0, 10)} {
		if _, err := st.Subscribe(ID(id), s); err != nil {
			t.Fatal(err)
		}
	}
	gone := weak.Make(st.nodes[1])
	if _, err := st.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if n := gone.Value(); n != nil {
		t.Fatalf("unsubscribed node %d is still reachable", n.id)
	}
	if ix := st.active[2]; ix == nil || ix.Len() != 1 {
		t.Fatal("the active index of count 2 does not hold the other node")
	}
}

// TestRouteNodeLayout requires a coverage-table node to fit the 48-byte
// size class, so that a field creeping back fails by name, not through
// a heap figure. The test of the same name in package broker does the
// same for a route.
func TestRouteNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 48 {
		t.Errorf("a node takes %d B, want at most 48", got)
	}
}
